"""CLI tests for sweeps split across machines: --shard and `repro merge`."""

import json

import pytest

from repro.cli import main

BATCH = ["batch", "--task", "kdelta", "--family", "random_regular",
         "-n", "30", "40", "--delta", "4", "--seeds", "2", "--param", "k=1"]


def normalized(path):
    out = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        if "record" in obj:
            obj["record"].pop("seconds", None)
        out.append(obj)
    return out


class TestShardFlag:
    def test_bad_shard_syntax_exits(self, tmp_path):
        for bad in ("2", "a/b", "2/2", "-1/2"):
            with pytest.raises(SystemExit):
                main(BATCH + ["--shard", bad,
                              "--output", str(tmp_path / "s.jsonl")])

    def test_shard_requires_output(self):
        with pytest.raises(SystemExit, match="--shard requires --output"):
            main(BATCH + ["--shard", "0/2"])

    def test_shard_and_merge_round_trip(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        assert main(BATCH + ["--output", str(full)]) == 0
        shards = []
        for index in range(2):
            path = tmp_path / f"s{index}.jsonl"
            assert main(BATCH + ["--shard", f"{index}/2",
                                 "--output", str(path)]) == 0
            shards.append(path)
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", *map(str, shards), "--output", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard(s)" in out
        assert normalized(merged) == normalized(full)

    def test_merge_failure_reports_error(self, tmp_path, capsys):
        path = tmp_path / "s0.jsonl"
        assert main(BATCH + ["--shard", "0/2", "--output", str(path)]) == 0
        code = main(["merge", str(path), "--output", str(tmp_path / "m.jsonl")])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err
