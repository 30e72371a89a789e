"""Config parsing, seeding, sharded sampling, and the command-line surface."""

import json

import numpy as np
import pytest

from conebessel.cli import (
    _adaptive_simpson,
    _json_default,
    _parallel_stack,
    _resolve_seed,
    _rng,
    _shards,
    load_config,
    main,
    run_criterion,
)
from conebessel.cone_core import write_matrix_text


class TestLoadConfig:
    def test_typing_comments_and_hyphens(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# experiment setup\n"
            "q = 2\n"
            "mu = 2.5   # spectral parameter\n"
            "\n"
            "n-samples = 5000\n"
            "rule = linear\n"
        )
        cfg = load_config(cfg_file)
        assert cfg == {"q": 2, "mu": 2.5, "n_samples": 5000, "rule": "linear"}
        assert isinstance(cfg["q"], int)
        assert isinstance(cfg["mu"], float)

    def test_missing_equals_reports_line(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("q = 1\njust words\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:2"):
            load_config(cfg_file)

    def test_empty_value_reports_line(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("mu =\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:1"):
            load_config(cfg_file)

    def test_wrong_type_names_the_field(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("q = two\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:1: field 'q'"):
            load_config(cfg_file)


class TestSeeding:
    def test_flag_beats_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("CONEBESSEL_SEED", "7")
        assert _resolve_seed(3, {"seed": 5}) == 3
        assert _resolve_seed(None, {"seed": 5}) == 5
        assert _resolve_seed(None, {}) == 7
        monkeypatch.delenv("CONEBESSEL_SEED")
        assert _resolve_seed(None, {}) == 0

    def test_stream_split_is_deterministic(self):
        a = _rng(11, 2, 0).standard_normal(4)
        b = _rng(11, 2, 0).standard_normal(4)
        c = _rng(11, 3, 0).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shards_balance_and_cap(self):
        assert _shards(10, 3) == [4, 3, 3]
        assert sum(_shards(17, 5)) == 17
        assert _shards(2, 8) == [1, 1]
        assert _shards(5, 1) == [5]

    def test_parallel_stack_reproducible_per_worker_count(self):
        draw = lambda m, rng: rng.standard_normal((m, 2))
        one = _parallel_stack(10, 3, 42, 9, draw)
        two = _parallel_stack(10, 3, 42, 9, draw)
        assert one.shape == (10, 2)
        assert np.array_equal(one, two)
        assert not np.array_equal(one, _parallel_stack(10, 3, 43, 9, draw))


class TestNumericHelpers:
    def test_adaptive_simpson_known_integrals(self):
        four_over = lambda x: 4.0 / (1.0 + x * x)
        assert _adaptive_simpson(four_over, 0.0, 1.0, 1e-12) == pytest.approx(np.pi, abs=1e-10)
        assert _adaptive_simpson(np.sin, 0.0, np.pi, 1e-12) == pytest.approx(2.0, abs=1e-10)

    def test_json_encoder_handles_numpy(self):
        payload = {
            "real": np.arange(3.0),
            "cplx": np.array([[1.0 + 2.0j]]),
            "scalar": np.float64(0.5),
            "flag": np.bool_(True),
        }
        decoded = json.loads(json.dumps(payload, default=_json_default))
        assert decoded["real"] == [0.0, 1.0, 2.0]
        assert decoded["cplx"] == {"re": [[1.0]], "im": [[2.0]]}
        assert decoded["scalar"] == 0.5
        assert decoded["flag"] is True
        with pytest.raises(TypeError, match="not serializable"):
            json.dumps({"bad": object()}, default=_json_default)


class TestMainEvalBessel:
    def test_eigs_at_zero_is_one(self, capsys):
        rc = main(["eval-bessel", "--q", "1", "--d", "1", "--mu", "1.5", "--eigs", "0.0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == 1.0
        assert report["params"] == {"q": 1, "d": 1, "mu": 1.5}

    def test_eigs_count_must_match_q(self, capsys):
        rc = main(["eval-bessel", "--q", "2", "--d", "1", "--mu", "2.5", "--eigs", "0.5"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "expected 2 eigenvalues" in err["error"]

    def test_matrix_file_argument(self, tmp_path, capsys):
        xfile = tmp_path / "x.mat"
        write_matrix_text(xfile, np.diag([0.5, 0.25]), d=1)
        rc = main(
            ["eval-bessel", "--q", "2", "--d", "1", "--mu", "2.5", "--x", str(xfile)]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 < report["value"] < 1.0
        assert report["truncation_bound"] <= 1e-10

    def test_missing_argument_is_an_error(self, capsys):
        rc = main(["eval-bessel", "--q", "1", "--d", "1", "--mu", "1.5"])
        assert rc == 1
        assert "error" in json.loads(capsys.readouterr().err)

    def test_series_overflow_is_a_one_line_error(self, capsys):
        rc = main(["eval-bessel", "--q", "1", "--d", "1", "--mu", "0.6", "--eigs", "500"])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert "more than" in json.loads(out.err)["error"]

    @pytest.mark.parametrize("tol", ["0", "-1e-10"])
    def test_nonpositive_tol_rejected(self, tol, capsys):
        rc = main(["eval-bessel", "--q", "1", "--d", "1", "--mu", "1.5", "--eigs", "0.5", f"--tol={tol}"])
        assert rc == 1
        assert "tol must be > 0" in json.loads(capsys.readouterr().err)["error"]

    def test_matrix_file_size_must_match_q(self, tmp_path, capsys):
        xfile = tmp_path / "x.mat"
        write_matrix_text(xfile, np.diag([0.5, 0.25]), d=1)
        rc = main(["eval-bessel", "--q", "3", "--d", "1", "--mu", "2.5", "--x", str(xfile)])
        assert rc == 1
        assert "parameters say q=3" in json.loads(capsys.readouterr().err)["error"]


class TestMainConv:
    def _write_inputs(self, tmp_path):
        r = tmp_path / "r.mat"
        s = tmp_path / "s.mat"
        write_matrix_text(r, np.diag([1.0, 0.5]), d=1)
        write_matrix_text(s, np.diag([0.5, 0.25]), d=1)
        return str(r), str(s)

    def test_writes_reproducible_csv(self, tmp_path, capsys):
        r, s = self._write_inputs(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["conv", "--q", "2", "--d", "1", "--mu", "2.5", "--r", r, "--s", s, "--n", "400"]
        assert main(base + ["--seed", "5", "--output", str(out_a)]) == 0
        assert main(base + ["--seed", "5", "--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_changes_samples(self, tmp_path, capsys):
        r, s = self._write_inputs(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["conv", "--q", "2", "--d", "1", "--mu", "2.5", "--r", r, "--s", s, "--n", "400"]
        assert main(base + ["--seed", "5", "--output", str(out_a)]) == 0
        assert main(base + ["--seed", "6", "--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_unsupported_field_rejected_on_both_input_paths(self, tmp_path, capsys):
        bad = tmp_path / "h.mat"
        bad.write_text("2 4\n" + "0.0\n" * 16)
        for argv in (
            ["eval-bessel", "--q", "1", "--d", "3", "--mu", "1.5", "--eigs", "0.5"],
            ["eval-bessel", "--q", "1", "--d", "4", "--mu", "1.5", "--eigs", "0.5"],
            ["conv", "--q", "2", "--d", "2", "--mu", "4.0", "--r", str(bad), "--s", str(bad), "--n", "10"],
        ):
            assert main(argv) == 1
            out = capsys.readouterr()
            assert out.out == "" and len(out.err.splitlines()) == 1
            assert "Traceback" not in out.err
            assert "field dimension" in json.loads(out.err)["error"]

    def test_field_mismatch_rejected(self, tmp_path, capsys):
        r, s = self._write_inputs(tmp_path)
        rc = main(["conv", "--q", "2", "--d", "2", "--mu", "4.0", "--r", r, "--s", s, "--n", "10"])
        assert rc == 1
        assert "field (d)" in json.loads(capsys.readouterr().err)["error"]


class TestMainExperiments:
    def test_wishart_sampling_with_panel(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        rc = main(
            ["wishart", "--q", "2", "--d", "1", "--mu", "2.5", "--n", "300",
             "--output", str(out), "--seed", "2"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert out.exists()
        assert len(report["fourier_panel"]) == 3
        for row in report["fourier_panel"]:
            assert abs(row["estimate"] - row["target"]) <= 6.0 * row["stderr"] + 1e-3

    def test_clt_subcommand_small_run(self, capsys):
        rc = main(
            ["clt", "--q", "1", "--d", "1", "--mu", "1.5", "--step", "point",
             "--steps", "8", "--replicas", "200", "--grid", "0.8", "--seed", "3"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_final"] == 8
        assert report["grid_c"] == [0.8]

    def test_clt_step_file_must_match_field_and_size(self, tmp_path, capsys):
        step = tmp_path / "step.mat"
        write_matrix_text(step, np.diag([1.0, 0.5]).astype(complex), d=2)
        base = ["clt", "--mu", "4.5", "--step", "point", "--step-file", str(step),
                "--steps", "8", "--replicas", "20"]
        assert main(base + ["--q", "2", "--d", "1"]) == 1
        assert "field (d)" in json.loads(capsys.readouterr().err)["error"]
        assert main(base + ["--q", "1", "--d", "2"]) == 1
        assert "parameters say q=1" in json.loads(capsys.readouterr().err)["error"]
        assert main(base + ["--q", "2", "--d", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["n_final"] == 8

    def test_slln_subcommand_small_run(self, capsys):
        rc = main(
            ["slln", "--q", "1", "--d", "1", "--mu", "1.0", "--rule", "linear",
             "--n-max", "16", "--replicas", "20", "--seed", "4"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checkpoints"] == [1, 2, 4, 8, 16]


class TestMainCheck:
    def test_quick_suite_passes(self, capsys):
        rc = main(["check", "--q", "1", "--d", "1", "--mu", "1.5", "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert {c["name"] for c in report["checks"]} >= {"trace-identity", "product-formula"}

    def test_single_criterion_run(self, capsys):
        rc = main(["check", "--criterion", "2", "--seed", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["criteria"][0]["index"] == 2
        assert report["criteria"][0]["passed"]

    def test_config_file_supplies_parameters(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 1\nd = 1\nmu = 1.5\nseed = 9\n")
        rc = main(["check", "--config", str(cfg)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 9

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q ===\n")
        rc = main(["check", "--config", str(cfg)])
        assert rc == 1
        assert "error" in json.loads(capsys.readouterr().err)

    def test_bad_worker_count_exits_one(self, capsys):
        rc = main(["check", "--q", "1", "--d", "1", "--mu", "1.5", "--workers", "0"])
        assert rc == 1
        assert "workers" in json.loads(capsys.readouterr().err)["error"]


class TestCriterionRunner:
    def test_unknown_index_rejected(self):
        with pytest.raises(ValueError, match="no acceptance criterion"):
            run_criterion(99)

    def test_failure_is_captured_not_raised(self):
        # registry indices are stable; a valid one always returns a dict
        res = run_criterion(2, seed=0)
        assert set(res) >= {"index", "name", "passed", "runtime_s", "details"}
