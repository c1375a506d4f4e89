"""Parameter calculus of Theorem 1.1.

Given the maximum degree ``Delta``, the number ``m`` of input colors, the
defect tolerance ``d`` and the batch size ``k``, the paper fixes

* ``Z = Delta / (d + 1)``,
* ``f = ceil(log_Z m)`` — the degree bound of the polynomials,
* a prime ``q`` with ``2 f Z < q < 4 f Z`` (Equation (1), exists by Bertrand),
* ``X = 4 Z ceil(log_Z m) = 4 f Z`` — so ``q < X``,
* the output colors live in ``[k] x [q]`` (at most ``k X`` colors),
* the round bound ``R = ceil(X / k)`` (the algorithm actually runs at most
  ``ceil(q / k) <= R`` batch iterations).

Correctness needs ``q`` to be strictly larger than the maximum possible number
of *blocked* tuples ``2 f Z`` and needs one distinct polynomial per input color
(``m <= q^(f+1)``); :class:`MotherParameters` computes and validates all of
this once so both the per-node and the vectorized implementation agree on the
exact same constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fields.primes import prime_in_range, next_prime

__all__ = ["MotherParameters", "ParameterError", "check_word_size"]


class ParameterError(ValueError):
    """Raised when (m, Delta, d, k) violate the requirements of Theorem 1.1."""


def check_word_size(params: "MotherParameters") -> None:
    """Raise :class:`ParameterError` unless ``params.q < 2**31``.

    The array and jit backends need it: the jit mother kernel keeps each
    vertex's polynomial value as int32, and both backends multiply two
    values below ``q`` in int64 (the array backend's Horner step
    ``acc * x + c``, the jit kernel's ``digit * x**j``), which overflows
    silently past ``q ~ 3.04e9``.  Their drivers call this before the first
    batch, so a hand-built ``params=`` with a huge field fails loudly.  :meth:`MotherParameters.derive` reaches ``q >= 2**31`` only when
    ``f * Z`` is in the hundreds of millions; the reference backend uses
    Python ints and has no such limit.
    """
    if params.q >= 2 ** 31:
        raise ParameterError(
            f"field size q={params.q} needs q < 2**31 on the array and jit "
            "backends (int32 polynomial values, int64 products); "
            "use the reference backend"
        )


@dataclass(frozen=True)
class MotherParameters:
    """Validated, fully derived parameters for one run of Algorithm 1.

    Use :meth:`derive` to construct; the constructor takes the already-derived
    values and re-checks the invariants (so deserialised/bench-cached parameter
    sets are validated too).
    """

    m: int
    delta: int
    d: int
    k: int
    f: int
    q: int

    # ------------------------------------------------------------------ #

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        if self.delta < 1:
            raise ParameterError(f"Delta must be >= 1, got {self.delta}")
        if not (0 <= self.d <= self.delta - 1):
            raise ParameterError(
                f"defect parameter d must satisfy 0 <= d <= Delta - 1, got d={self.d}, Delta={self.delta}"
            )
        if self.k < 1:
            raise ParameterError(f"batch size k must be >= 1, got {self.k}")
        if self.f < 1:
            raise ParameterError(f"polynomial degree bound f must be >= 1, got {self.f}")
        if self.q <= 2 * self.f * self.Z_int_guard():
            # The precise requirement is q > number of blocked tuples; the
            # conservative bound used throughout is 2 f Z.
            raise ParameterError(
                f"field size q={self.q} is not larger than 2*f*Z={2 * self.f * self.Z:.2f}"
            )
        if self.m + self.q > self.q ** (self.f + 1):
            # The implementation assigns input color i the polynomial with
            # index i + q, skipping the q constant polynomials (see
            # repro.core.sequences); hence m + q polynomials must exist.
            raise ParameterError(
                f"cannot assign distinct non-constant degree-<= {self.f} polynomials over "
                f"F_{self.q} to m={self.m} input colors"
            )

    def Z_int_guard(self) -> float:
        return self.Z

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def Z(self) -> float:
        """``Z = Delta / (d + 1)`` — the per-neighbor conflict budget scale."""
        return self.delta / (self.d + 1)

    @property
    def X(self) -> float:
        """``X = 4 f Z`` — the upper end of the prime interval (``q < X``)."""
        return 4.0 * self.f * self.Z

    @property
    def num_batches(self) -> int:
        """Number of batch iterations actually executed: ``ceil(q / k)``."""
        return -(-self.q // self.k)

    @property
    def round_bound(self) -> int:
        """The round bound ``R = ceil(X / k)`` stated in Theorem 1.1."""
        return math.ceil(self.X / self.k)

    @property
    def color_space_size(self) -> int:
        """Number of possible output colors: at most ``min(k, q) * q <= k X``."""
        return min(self.k, self.q) * self.q

    @property
    def max_blocked_tuples(self) -> float:
        """The proof's bound ``2 f Z`` on tuples that can ever be blocked for a node."""
        return 2.0 * self.f * self.Z

    # ------------------------------------------------------------------ #
    # Color encoding
    # ------------------------------------------------------------------ #

    def encode_color(self, x: int, value: int) -> int:
        """Encode the color tuple ``(x mod k, p(x) mod q)`` as a single integer."""
        return (x % self.k) * self.q + value

    def decode_color(self, color: int) -> tuple[int, int]:
        """Inverse of :meth:`encode_color`."""
        return divmod(int(color), self.q)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def derive(cls, m: int, delta: int, d: int = 0, k: int = 1) -> "MotherParameters":
        """Derive ``f`` and the prime ``q`` from ``(m, Delta, d, k)`` as in the paper.

        ``f = ceil(log_Z m)`` with the base clamped to at least 2 (the paper's
        setting has ``Z > 1``; when ``d = Delta - 1`` gives ``Z = 1`` the
        logarithm base degenerates, and base 2 preserves every inequality the
        proof uses).  ``q`` is the smallest prime exceeding ``2 f Z`` (and, if
        necessary, large enough that ``q^(f+1) >= m``); Bertrand's postulate
        guarantees it is below ``4 f Z`` whenever ``2 f Z >= 1``.
        """
        if delta < 1:
            raise ParameterError(f"Delta must be >= 1, got {delta}")
        if not (0 <= d <= delta - 1):
            raise ParameterError(
                f"defect parameter d must satisfy 0 <= d <= Delta - 1, got d={d}, Delta={delta}"
            )
        if m < 1:
            raise ParameterError(f"m must be >= 1, got {m}")
        if k < 1:
            raise ParameterError(f"batch size k must be >= 1, got {k}")

        Z = delta / (d + 1)
        base = max(Z, 2.0)
        f = max(1, math.ceil(math.log(max(m, 2)) / math.log(base)))

        lower = 2.0 * f * Z
        upper = 4.0 * f * Z
        try:
            q = prime_in_range(math.floor(lower), math.ceil(upper) + 1)
        except ValueError:
            # Tiny parameter corner (e.g. Delta = 1): fall back to the smallest
            # prime exceeding the blocked-tuple bound.
            q = next_prime(math.floor(lower))
        # Ensure enough distinct *non-constant* polynomials for all m input
        # colors (the q constant polynomials are skipped, see repro.core.sequences).
        while q ** (f + 1) < m + q:
            q = next_prime(q)
        return cls(m=int(m), delta=int(delta), d=int(d), k=int(k), f=int(f), q=int(q))

    def describe(self) -> dict[str, float | int]:
        """Dictionary of all derived constants (used in experiment tables)."""
        return {
            "m": self.m,
            "delta": self.delta,
            "d": self.d,
            "k": self.k,
            "Z": self.Z,
            "f": self.f,
            "q": self.q,
            "X": self.X,
            "round_bound": self.round_bound,
            "num_batches": self.num_batches,
            "color_space": self.color_space_size,
        }
