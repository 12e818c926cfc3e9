import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import actriv
from actriv.cli import _solver_config, main
from actriv.notation import format_sequence
from actriv.catalog import known_trivializations


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_fresh(argv):
    """``actriv argv`` in a fresh interpreter; its exit code, stdout and
    stderr."""
    src = str(Path(actriv.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "actriv.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


class TestCatalogCommand:
    def test_lists_all(self, capsys):
        code, out = run(["catalog"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 20
        assert any(line.startswith("T56\t") and line.endswith("\t25") for line in lines)
        assert any(line.startswith("AK3\t") and line.endswith("\t-") for line in lines)

    def test_single_id(self, capsys):
        code, out = run(["catalog", "--id", "T1"], capsys)
        assert code == 0
        assert out.strip() == "T1\t<a,b|a^2bAB,b^2aBA>\t6"

    def test_auxiliary(self, capsys):
        code, out = run(["catalog", "--auxiliary"], capsys)
        assert any(line.startswith("T83\t") for line in out.splitlines())

    def test_single_auxiliary_id(self, capsys):
        code, out = run(["catalog", "--id", "T83"], capsys)
        assert code == 0
        assert out == "T83\t<a,b|a^2bABaBaB,b^2aBAbAbA>\t-\n"


class TestPipeline:
    def test_ball_sample_learn_fit_solve(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        train = str(tmp_path / "train.tsv")
        metrics = str(tmp_path / "metrics.txt")
        model = str(tmp_path / "model.txt")
        out = str(tmp_path / "runs.jsonl")
        summary = str(tmp_path / "summary.csv")

        code, _ = run(
            ["ball", "--rank", "2", "--max-total-length", "8", "--max-depth", "4",
             "--out", ball],
            capsys,
        )
        assert code == 0
        code, _ = run(
            ["sample", "--ball", ball, "--count", "30", "--seed", "1",
             "--out", train],
            capsys,
        )
        assert code == 0
        code, _ = run(
            ["learn", "--train", train, "--runs", "2", "--population", "16",
             "--generations", "4", "--seed", "2", "--out", metrics],
            capsys,
        )
        assert code == 0
        code, _ = run(
            ["fit", "--metrics", metrics, "--train", train, "--out", model],
            capsys,
        )
        assert code == 0
        code, text = run(
            ["solve", "--instance", "T1", "--ball", ball, "--model", model,
             "--seed", "3", "--out", out, "--summary", summary,
             "--population-size", "40", "--max-generations", "10",
             "--restarts", "2"],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in open(out)]
        assert len(records) == 2
        assert all(r["instance"] == "T1" for r in records)
        assert "solved" in text or "0/2" in text or "runs solved" in text

    def test_fit_multi_and_solve_multi(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        train = str(tmp_path / "train.tsv")
        metrics = str(tmp_path / "metrics.txt")
        model = str(tmp_path / "objectives.txt")
        out = str(tmp_path / "runs.jsonl")

        run(["ball", "--rank", "2", "--max-total-length", "8", "--max-depth", "4",
             "--out", ball], capsys)
        run(["sample", "--ball", ball, "--count", "24", "--seed", "1",
             "--out", train], capsys)
        run(["learn", "--train", train, "--runs", "3", "--population", "12",
             "--generations", "3", "--seed", "5", "--out", metrics], capsys)
        code, text = run(
            ["fit", "--metrics", metrics, "--train", train, "--mode", "multi",
             "--objectives", "2", "--out", model],
            capsys,
        )
        assert code == 0
        assert "objective set: 2" in text
        code, _ = run(
            ["solve", "--instance", "AK3", "--ball", ball, "--model", model,
             "--seed", "6", "--out", out, "--population-size", "20",
             "--max-generations", "3", "--restarts", "1"],
            capsys,
        )
        assert code == 0
        record = json.loads(open(out).readline())
        assert record["outcome"] in ("exhausted", "solved")

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        train = str(tmp_path / "train.tsv")
        metrics = str(tmp_path / "metrics.txt")
        model = str(tmp_path / "model.txt")
        run(["ball", "--rank", "2", "--max-total-length", "6", "--max-depth", "3",
             "--out", ball], capsys)
        run(["sample", "--ball", ball, "--count", "20", "--seed", "1",
             "--out", train], capsys)
        run(["learn", "--train", train, "--runs", "2", "--population", "10",
             "--generations", "2", "--seed", "2", "--out", metrics], capsys)
        run(["fit", "--metrics", metrics, "--train", train, "--out", model], capsys)

        config = tmp_path / "solver.cfg"
        config.write_text(
            "# desk settings\npopulation_size = 24\nmax_generations = 2\nrestarts = 1\n"
        )
        out = str(tmp_path / "a.jsonl")
        code, _ = run(
            ["solve", "--instance", "AK3", "--ball", ball, "--model", model,
             "--config", str(config), "--seed", "1", "--out", out],
            capsys,
        )
        assert code == 0
        record = json.loads(open(out).readline())
        # AK3 never solves here, so evaluations = population * (generations+1)
        assert record["evaluations"] == 24 * 3

        out2 = str(tmp_path / "b.jsonl")
        code, _ = run(
            ["solve", "--instance", "AK3", "--ball", ball, "--model", model,
             "--config", str(config), "--seed", "1", "--out", out2,
             "--population-size", "16"],
            capsys,
        )
        record = json.loads(open(out2).readline())
        assert record["evaluations"] == 16 * 3

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("popsize = 10\n")
        with pytest.raises(SystemExit):
            main(["solve", "--instance", "T1", "--ball", "x", "--model", "y",
                  "--config", str(config), "--out", "z"])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("population_size = abc", "population_size 'abc' is not an integer"),
            ("time_budget_s = soon", "time_budget_s 'soon' is not a number"),
            ("stop_on_first_solve = on", "stop_on_first_solve 'on' is not one of"),
        ],
    )
    def test_bad_config_value_names_the_line(self, tmp_path, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"# settings\nrestarts = 2\n{line}\n")
        with pytest.raises(SystemExit, match=f"bad.cfg:3: {message}"):
            main(["solve", "--instance", "T1", "--ball", "x", "--model", "y",
                  "--config", str(config), "--out", "z"])

    @pytest.mark.parametrize(
        "extra, where",
        [(["--config", "bad.cfg"], "bad.cfg:2"), (["--restarts", "0"], "--restarts")],
        ids=["file", "flag"],
    )
    def test_invalid_setting_names_its_source(
        self, tmp_path, monkeypatch, extra, where
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("population_size = 40\nrestarts = 0\n")
        message = re.escape(f"{where}: restarts must be >= 1")
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main(["solve", "--instance", "T1", "--ball", "x", "--model", "y",
                  "--out", "z", *extra])

    @pytest.mark.parametrize(
        "value, expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("no", False),
         ("False", False)],
    )
    def test_stop_on_first_solve_values(self, tmp_path, value, expected):
        config = tmp_path / "solver.cfg"
        config.write_text(f"stop_on_first_solve = {value}\n")
        cfg, _ = _solver_config(argparse.Namespace(config=str(config)))
        assert cfg.stop_on_first_solve is expected


    def test_relative_paths_and_self_contained_model(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        steps = [
            ["ball", "--rank", "2", "--max-total-length", "6", "--max-depth", "3",
             "--out", "data/ball.tsv"],
            ["sample", "--ball", "data/ball.tsv", "--count", "20", "--seed", "1",
             "--out", "data/train.tsv"],
            ["learn", "--train", "data/train.tsv", "--runs", "2", "--population",
             "10", "--generations", "2", "--seed", "2", "--out", "data/metrics.txt"],
            ["fit", "--metrics", "data/metrics.txt", "--train", "data/train.tsv",
             "--out", "data/model.txt"],
        ]
        for argv in steps:
            assert run(argv, capsys)[0] == 0
        solve = ["solve", "--instance", "AK3", "--ball", "data/ball.tsv",
                 "--model", "data/model.txt", "--seed", "1",
                 "--population-size", "12", "--max-generations", "1",
                 "--restarts", "1"]
        assert run(solve + ["--out", "data/a.jsonl"], capsys)[0] == 0
        (tmp_path / "data" / "metrics.txt").unlink()
        assert run(solve + ["--out", "data/b.jsonl"], capsys)[0] == 0
        assert (tmp_path / "data" / "a.jsonl").read_bytes() == (
            tmp_path / "data" / "b.jsonl"
        ).read_bytes()


class TestInputErrors:
    """A bad input file ends the command with one located line on stderr."""

    def test_ball_member_that_does_not_follow(self, tmp_path, capsys):
        ball = tmp_path / "bad.tsv"
        run(["ball", "--max-total-length", "4", "--max-depth", "2",
             "--out", str(ball)], capsys)
        lines = ball.read_text().splitlines()
        assert lines[2] == "<a,b|b,ab>\t1\t0\tmul:0:1"
        lines[2] = "<a,b|b,ab>\t1\t0\tmul:1:0"
        ball.write_text("\n".join(lines) + "\n")
        code, _, err = run_fresh(["sample", "--ball", str(ball), "--count", "3",
                               "--out", str(tmp_path / "train.tsv")])
        assert code != 0
        assert err == (
            f"{ball}:3: presentation does not follow from its parent and move\n"
        )

    def test_missing_ball_file(self, tmp_path):
        missing = tmp_path / "missing.tsv"
        code, _, err = run_fresh(["sample", "--ball", str(missing), "--count", "3",
                               "--out", str(tmp_path / "train.tsv")])
        assert code != 0
        assert err == f"{missing}: No such file or directory\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Rank-2 and rank-3 balls, a ball file whose header declares depth 0,
    a rank-2 training set, rank-2 and rank-3 metric files and ensemble
    models, a model whose numbers are not finite, a metrics file with no
    metrics, an empty certificate and a file that is not UTF-8."""
    root = tmp_path_factory.mktemp("inputs")
    assert main(["ball", "--max-total-length", "6", "--max-depth", "3",
                 "--out", str(root / "ball.tsv")]) == 0
    assert main(["sample", "--ball", str(root / "ball.tsv"), "--count", "20",
                 "--out", str(root / "train.tsv")]) == 0
    assert main(["ball", "--rank", "3", "--max-total-length", "4",
                 "--max-depth", "1", "--out", str(root / "ball3.tsv")]) == 0
    (root / "ball-depth0.tsv").write_text(
        "# actriv-ball rank=2 max_total_length=6 max_depth=0\n<a,b|a,b>\t0\t-1\t-\n"
    )
    (root / "metrics0.txt").write_text("# actriv-metrics rank=2\n")
    (root / "metrics2.txt").write_text("# actriv-metrics rank=2\nconj:0:b\n")
    (root / "metrics3.txt").write_text("# actriv-metrics rank=3\nconj:0:c\n")
    (root / "model2.txt").write_text(
        "# actriv-ensemble rank=2 intercept=0.0\n1.0\tconj:0:b\n"
    )
    (root / "model3.txt").write_text(
        "# actriv-ensemble rank=3 intercept=0.0\n1.0\tconj:0:c\n"
    )
    (root / "model-nan.txt").write_text(
        "# actriv-ensemble rank=2 intercept=nan\ninf\tconj:0:b\n"
    )
    (root / "empty-train.tsv").write_text("# actriv-training rank=2\n\n")
    (root / "c.cfg").write_text("restarts=0\nrestarts=2\n")
    (root / "t1.moves").write_text("-\n")
    (root / "binary.tsv").write_bytes(b"\x89PNG\r\n")
    return root


class TestInputBoundary:
    """Bad input of any command, not only a bad file, ends it with one line
    on stderr and a non-zero exit."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--instance", "T999", "--ball", "{d}/ball.tsv",
              "--sequence", "{d}/t1.moves"],
             "--instance: unknown instance 'T999'"),
            (["verify", "--instance", "<a,b|ab,c>", "--ball", "{d}/ball.tsv",
              "--sequence", "{d}/t1.moves"],
             "--instance: unknown generator symbol at 'c'"),
            (["ball", "--max-total-length", "0", "--max-depth", "2",
              "--out", "{d}/x.tsv"],
             "--max-total-length: max_total_length must be >= 1"),
            (["ball", "--max-total-length", "4", "--max-depth", "2",
              "--max-members", "0", "--out", "{d}/x.tsv"],
             "--max-members: max_members must be >= 1"),
            (["sample", "--ball", "{d}/ball.tsv", "--count", "0",
              "--out", "{d}/x.tsv"],
             "--count: count must be >= 1"),
            (["learn", "--train", "{d}/train.tsv", "--runs", "0",
              "--out", "{d}/x.txt"],
             "--runs: runs must be >= 1"),
            (["learn", "--train", "{d}/train.tsv", "--population", "3",
              "--out", "{d}/x.txt"],
             "--population: population_size 3 is smaller than tournament_size 7"),
            (["learn", "--train", "{d}/train.tsv", "--generations", "-1",
              "--out", "{d}/x.txt"],
             "--generations: generations must be >= 0"),
            (["fit", "--metrics", "{d}/metrics2.txt", "--train", "{d}/train.tsv",
              "--mode", "multi", "--objectives", "0", "--out", "{d}/x.txt"],
             "--objectives: k must be >= 1"),
            (["fit", "--metrics", "{d}/metrics3.txt", "--train", "{d}/train.tsv",
              "--out", "{d}/x.txt"],
             "rank 3 metrics do not fit a rank 2 training set"),
            (["fit", "--metrics", "{d}/metrics2.txt", "--train", "{d}/train.tsv",
              "--cap", "0", "--out", "{d}/x.txt"],
             "--cap: cap must be >= 1"),
            (["fit", "--metrics", "{d}/metrics2.txt", "--train", "{d}/train.tsv",
              "--mode", "multi", "--cap", "0", "--out", "{d}/x.txt"],
             "--cap: cap must be >= 1"),
            (["fit", "--metrics", "{d}/metrics2.txt", "--train", "{d}/train.tsv",
              "--cap", "1", "--out", "{d}/x.txt"],
             "none of the 1 metrics varies over the training set"),
            (["fit", "--metrics", "{d}/metrics2.txt", "--train", "{d}/train.tsv",
              "--mode", "multi", "--cap", "1", "--out", "{d}/x.txt"],
             "none of the 1 metrics varies over the training set"),
            (["fit", "--metrics", "{d}/metrics0.txt", "--train", "{d}/train.tsv",
              "--out", "{d}/x.txt"],
             "{d}/metrics0.txt: no records"),
            (["solve", "--instance", "T1", "--ball", "{d}/ball-depth0.tsv",
              "--model", "{d}/model2.txt", "--out", "{d}/x.jsonl"],
             "{d}/ball-depth0.tsv: max_depth must be >= 1"),
            (["solve", "--instance", "T1", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model3.txt", "--out", "{d}/x.jsonl"],
             "a rank 3 model cannot drive a rank 2 instance"),
            (["solve", "--instance", "T1", "--ball", "{d}/ball3.tsv",
              "--model", "{d}/model2.txt", "--out", "{d}/x.jsonl"],
             "a rank 3 ball cannot check a rank 2 instance"),
            (["solve", "--instance", "T1", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--relator-length-cap", "0",
              "--out", "{d}/x.jsonl"],
             "--relator-length-cap: relator_length_cap must be >= 1"),
            (["solve", "--instance", "T1", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--relator-length-cap", "10",
              "--out", "{d}/x.jsonl"],
             "--relator-length-cap: relator_length_cap 10 is not above the "
             "instance's total relator length 10"),
            (["solve", "--instance", "AK3", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--max-generations", "-3",
              "--out", "{d}/x.jsonl"],
             "--max-generations: max_generations must be >= 0"),
            (["solve", "--instance", "AK3", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--time-budget-s", "-5",
              "--out", "{d}/x.jsonl"],
             "--time-budget-s: time_budget_s must be >= 0"),
            (["solve", "--instance", "AK3", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--p-insert", "-0.5",
              "--p-replace", "1.5", "--p-delete", "0", "--out", "{d}/x.jsonl"],
             "--p-insert: p_insert must be in [0, 1], got -0.5"),
            (["solve", "--instance", "AK3", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--workers", "-2",
              "--out", "{d}/x.jsonl"],
             "--workers: workers must be >= 1"),
            (["learn", "--train", "{d}/train.tsv", "--workers", "0",
              "--out", "{d}/x.txt"],
             "--workers: workers must be >= 1"),
            (["verify", "--instance", "T1", "--ball", "{d}/ball3.tsv",
              "--sequence", "{d}/t1.moves"],
             "a rank 3 ball cannot check a rank 2 instance"),
            (["solve", "--instance", "AK3", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model-nan.txt", "--out", "{d}/x.jsonl"],
             "{d}/model-nan.txt: header intercept 'nan' is not finite"),
            (["solve", "--instance", "AK3", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--tournament-size", "0",
              "--out", "{d}/x.jsonl"],
             "--tournament-size: tournament_size must be >= 1"),
            (["solve", "--instance", "AK3", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--config", "{d}/c.cfg",
              "--out", "{d}/x.jsonl"],
             "{d}/c.cfg:2: config key 'restarts' is given twice"),
            (["learn", "--train", "{d}/empty-train.tsv", "--out", "{d}/x.txt"],
             "{d}/empty-train.tsv: no records"),
            (["ball", "--max-total-length", "4", "--max-depth", "2",
              "--out", "{d}/missing/b.tsv"],
             "{d}/missing/b.tsv: No such file or directory"),
            (["solve", "--instance", "AK3", "--ball", "{d}/ball.tsv",
              "--model", "{d}/model2.txt", "--restarts", "2x",
              "--out", "{d}/x.jsonl"],
             "--restarts: restarts '2x' is not an integer"),
            (["sample", "--ball", "{d}/binary.tsv", "--count", "3",
              "--out", "{d}/x.tsv"],
             "{d}/binary.tsv: 'utf-8' codec can't decode byte 0x89 in position 0: "
             "invalid start byte"),
        ],
        ids=["unknown-instance", "bad-instance-text", "ball-limits", "ball-members",
             "sample-count", "learn-runs", "learn-population", "learn-generations",
             "fit-objectives", "fit-rank", "fit-cap", "fit-multi-cap",
             "fit-constant", "fit-multi-constant", "fit-no-metrics",
             "solve-ball-header", "solve-rank", "solve-ball-rank",
             "solve-relator-cap", "solve-instance-over-cap",
             "solve-max-generations", "solve-time-budget", "solve-probability",
             "solve-workers", "learn-workers", "verify-ball-rank",
             "solve-model-nan", "solve-tournament-size", "solve-config-repeated-key",
             "learn-empty-training", "out-directory", "solve-flag-not-int",
             "not-utf8"],
    )
    def test_one_line(self, inputs, argv, message):
        code, out, err = run_fresh([arg.format(d=inputs) for arg in argv])
        assert code != 0
        assert out == ""
        assert err == message.format(d=inputs) + "\n"

    def test_mode_flag_and_config_key_are_gone(self, inputs, tmp_path, capsys):
        solve = ["solve", "--instance", "T1", "--ball", str(inputs / "ball.tsv"),
                 "--model", str(inputs / "model3.txt"), "--out", "x"]
        with pytest.raises(SystemExit) as exit_:
            main(solve + ["--mode", "single"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --mode single" in capsys.readouterr().err
        config = tmp_path / "mode.cfg"
        config.write_text("mode = multi\n")
        with pytest.raises(SystemExit, match="mode.cfg:1: unknown config key 'mode'"):
            main(solve + ["--config", str(config)])

    def test_instance_and_instance_file_exclude_each_other(self, inputs, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--instance", "T1", "--instance-file", "nonexist.txt",
                  "--ball", str(inputs / "ball.tsv"),
                  "--sequence", str(inputs / "t1.moves")])
        assert exit_.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["verify", "--ball", str(inputs / "ball.tsv"),
                  "--sequence", str(inputs / "t1.moves")])

    def test_instance_file_parse_error_names_the_file(self, inputs, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("<a,b|ab,c>\n")
        with pytest.raises(SystemExit, match=f"^{re.escape(str(bad))}: unknown"):
            main(["verify", "--instance-file", str(bad),
                  "--ball", str(inputs / "ball.tsv"),
                  "--sequence", str(inputs / "t1.moves")])

    def test_a_bug_keeps_its_traceback(self, monkeypatch):
        def broken():
            raise TypeError("a bug")

        monkeypatch.setattr(actriv.cli.catalog_mod, "catalog", broken)
        with pytest.raises(TypeError, match="a bug"):
            main(["catalog"])


class TestVerifyCommand:
    def test_verify_published_t1(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        run(["ball", "--rank", "2", "--max-total-length", "6", "--max-depth", "6",
             "--out", ball], capsys)
        seq_file = tmp_path / "t1.moves"
        seq_file.write_text(
            "# published certificate\n"
            + format_sequence(known_trivializations()["T1"], 2)
            + "\n"
        )
        proof_file = str(tmp_path / "proof.txt")
        code, text = run(
            ["verify", "--instance", "T1", "--sequence", str(seq_file),
             "--ball", ball, "--out", proof_file],
            capsys,
        )
        assert code == 0
        assert "verified, trivialization length 6" in text
        listing = open(proof_file).read()
        assert "reached the trivial class: verified" in listing

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        run(["ball", "--rank", "2", "--max-total-length", "2", "--max-depth", "1",
             "--out", ball], capsys)
        seq_file = tmp_path / "empty.moves"
        seq_file.write_text("-\n")
        code, text = run(
            ["verify", "--instance", "T1", "--sequence", str(seq_file),
             "--ball", ball],
            capsys,
        )
        assert code == 1
        assert "NOT verified" in text

    def test_failure_with_out_prints_the_reason(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        run(["ball", "--rank", "2", "--max-total-length", "10", "--max-depth", "4",
             "--out", ball], capsys)
        seq_file = tmp_path / "ak3.moves"
        seq_file.write_text("inv:0 inv:0\n")
        proof_file = tmp_path / "proof.txt"
        code, text = run(
            ["verify", "--instance", "AK3", "--sequence", str(seq_file),
             "--ball", ball, "--out", str(proof_file)],
            capsys,
        )
        reason = "NOT verified: no prefix of the 2-move sequence reaches the ball"
        assert code == 1
        assert text.splitlines() == [f"proof listing -> {proof_file}", f"AK3: {reason}"]
        assert proof_file.read_text().endswith(f"\n{reason}\n")

    def test_bad_move_code_names_the_sequence_file(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        run(["ball", "--rank", "2", "--max-total-length", "2", "--max-depth", "1",
             "--out", ball], capsys)
        seq_file = tmp_path / "bad.moves"
        seq_file.write_text("inv:0\nmul:0:7\n")
        with pytest.raises(SystemExit, match="bad.moves:2: bad move code 'mul:0:7'"):
            main(["verify", "--instance", "T1", "--sequence", str(seq_file),
                  "--ball", ball])

    def test_commented_instance_and_sequence_files(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        run(["ball", "--rank", "2", "--max-total-length", "6", "--max-depth", "6",
             "--out", ball], capsys)
        inst = tmp_path / "T1.txt"
        inst.write_text("# the T1 instance\n<a,b|a^2bAB,b^2aBA>  # published\n")
        seq_file = tmp_path / "t1.moves"
        moves = format_sequence(known_trivializations()["T1"], 2).split()
        seq_file.write_text(
            "# published certificate\n"
            + " ".join(moves[:3]) + "  # first half\n\n"
            + " ".join(moves[3:]) + "\n"
        )
        code, text = run(
            ["verify", "--instance-file", str(inst), "--sequence", str(seq_file),
             "--ball", ball],
            capsys,
        )
        assert code == 0
        assert "T1: verified, trivialization length 6" in text

    def test_literal_instance_text(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        run(["ball", "--rank", "2", "--max-total-length", "4", "--max-depth", "2",
             "--out", ball], capsys)
        seq_file = tmp_path / "seq.moves"
        seq_file.write_text("-\n")
        code, text = run(
            ["verify", "--instance", "<a,b|a,b>", "--sequence", str(seq_file),
             "--ball", ball],
            capsys,
        )
        assert code == 0
        assert "verified, trivialization length 0" in text

    def test_instance_file(self, tmp_path, capsys):
        ball = str(tmp_path / "ball.tsv")
        run(["ball", "--rank", "2", "--max-total-length", "4", "--max-depth", "2",
             "--out", ball], capsys)
        inst = tmp_path / "mine.txt"
        inst.write_text("<a,b|ab,b>\n")  # one multiplication from trivial
        seq_file = tmp_path / "seq.moves"
        seq_file.write_text("-\n")
        code, text = run(
            ["verify", "--instance-file", str(inst), "--sequence", str(seq_file),
             "--ball", ball],
            capsys,
        )
        assert code == 0
        assert "mine: verified" in text or "verified, trivialization length 0" in text
