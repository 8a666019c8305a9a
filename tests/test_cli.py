"""End-to-end tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import main
from repro.datasets.io import read_stream


@pytest.fixture
def maze_csv(tmp_path):
    path = str(tmp_path / "maze.csv")
    code = main(
        ["generate", "--dataset", "maze", "--n", "600", "--output", path]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_generates_stream(self, maze_csv):
        points = list(read_stream(maze_csv))
        assert len(points) == 600
        assert len(points[0].coords) == 2

    def test_seed_determinism(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["generate", "--dataset", "iris", "--n", "50", "--output", a,
              "--seed", "3"])
        main(["generate", "--dataset", "iris", "--n", "50", "--output", b,
              "--seed", "3"])
        assert list(read_stream(a)) == list(read_stream(b))

    def test_jsonl_output(self, tmp_path):
        path = str(tmp_path / "covid.jsonl")
        main(["generate", "--dataset", "covid", "--n", "40", "--output", path])
        assert len(list(read_stream(path))) == 40


class TestCluster:
    @pytest.mark.parametrize("method", ["disc", "dbscan", "extran", "rho2"])
    def test_methods_run(self, maze_csv, tmp_path, capsys, method):
        labels = str(tmp_path / "labels.csv")
        code = main(
            [
                "cluster", "--input", maze_csv, "--method", method,
                "--eps", "0.8", "--tau", "4",
                "--window", "300", "--stride", "60",
                "--output", labels,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        with open(labels) as handle:
            assert len(handle.read().splitlines()) == 301  # header + window

    def test_events_logged(self, maze_csv, capsys):
        code = main(
            [
                "cluster", "--input", maze_csv, "--method", "disc",
                "--eps", "0.8", "--tau", "4",
                "--window", "300", "--stride", "60", "--events",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "emerge" in out

    def test_empty_input_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(
            [
                "cluster", "--input", str(path), "--eps", "1", "--tau", "2",
                "--window", "10", "--stride", "5",
            ]
        )
        assert code == 1


class TestResilientCluster:
    BASE = ["cluster", "--eps", "0.8", "--tau", "4",
            "--window", "300", "--stride", "60"]

    def test_skip_policy_with_dead_letter(self, maze_csv, tmp_path, capsys):
        dirty = str(tmp_path / "dirty.csv")
        with open(maze_csv) as src, open(dirty, "w") as dst:
            for i, line in enumerate(src):
                dst.write(line)
                if i == 100:
                    dst.write("garbage,row\n")
        dead = str(tmp_path / "dead.jsonl")
        code = main(
            self.BASE
            + ["--input", dirty, "--on-malformed", "skip",
               "--dead-letter", dead]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 dead-lettered" in out
        assert "unparsable=1" in out
        with open(dead) as handle:
            assert "garbage" in handle.read()

    def test_checkpointing_requires_disc(self, maze_csv, tmp_path, capsys):
        code = main(
            self.BASE
            + ["--input", maze_csv, "--method", "dbscan",
               "--checkpoint-dir", str(tmp_path / "ck")]
        )
        assert code == 1
        assert "--method disc" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, maze_csv, capsys):
        code = main(self.BASE + ["--input", maze_csv, "--resume"])
        assert code == 1
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_with_empty_store_fails_cleanly(
        self, maze_csv, tmp_path, capsys
    ):
        code = main(
            self.BASE
            + ["--input", maze_csv, "--checkpoint-dir",
               str(tmp_path / "never-written"), "--resume"]
        )
        assert code == 2
        assert "nothing to resume" in capsys.readouterr().err


class TestEstimate:
    def test_suggests_parameters(self, maze_csv, capsys):
        code = main(["estimate", "--input", maze_csv, "--k", "4",
                     "--sample", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suggested eps" in out
        assert "suggested tau" in out

    def test_too_few_points(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        code = main(["estimate", "--input", str(path), "--k", "4"])
        assert code == 1


class TestCompare:
    def test_all_methods_reported(self, maze_csv, capsys):
        code = main(
            [
                "compare", "--input", maze_csv, "--eps", "0.8", "--tau", "4",
                "--window", "300", "--stride", "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("DISC", "IncDBSCAN", "EXTRA-N", "DBSCAN",
                     "rho2-DBSCAN", "DBSTREAM", "EDMSTREAM"):
            assert name in out


class TestObservabilityFlags:
    BASE = ["cluster", "--eps", "0.8", "--tau", "4",
            "--window", "300", "--stride", "60"]

    def test_trace_and_metrics_round_trip(self, maze_csv, tmp_path, capsys):
        from repro.observability import validate_trace_file

        trace = str(tmp_path / "trace.jsonl")
        prom = str(tmp_path / "disc.prom")
        code = main(
            self.BASE
            + ["--input", maze_csv, "--trace", trace, "--metrics-out", prom]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out  # end-of-run operator report
        assert "index:" in out
        strides = validate_trace_file(trace)  # schema-valid JSONL
        assert strides == 10  # 600 points / 60-point strides, fill included
        text = open(prom).read()
        assert f"disc_strides_total {strides}" in text
        assert 'disc_counter_total{counter="msbfs_expansions"}' in text

    def test_trace_requires_disc(self, maze_csv, tmp_path, capsys):
        code = main(
            self.BASE
            + ["--input", maze_csv, "--method", "dbscan",
               "--trace", str(tmp_path / "t.jsonl")]
        )
        assert code == 1
        assert "--method disc" in capsys.readouterr().err

    def test_trace_with_resilient_runtime(self, maze_csv, tmp_path, capsys):
        from repro.observability import validate_trace_file

        trace = str(tmp_path / "trace.jsonl")
        code = main(
            self.BASE
            + ["--input", maze_csv, "--checkpoint-dir",
               str(tmp_path / "ckpt"), "--trace", trace]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "input:" in out  # runtime block ...
        assert "trace:" in out  # ... merged with the trace block
        assert validate_trace_file(trace) == 10
