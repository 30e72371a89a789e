"""Config parsing, seeding, block sampling, and the command-line surface."""

import json

import numpy as np
import pytest

from conebessel import acceptance, ball_measure, cli
from conebessel.acceptance import _tally, run_criterion, stream_rng
from conebessel.cli import _BLOCK, _json_default, _parallel_stack, main
from conebessel.cone_core import write_matrix_text


def _error_line(capsys) -> str:
    """The one-line JSON error of a failed run (nothing on stdout)."""
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    return json.loads(out.err)["error"]


class TestLoadConfig:
    def test_typing_comments_and_hyphens(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# experiment setup\n"
            "q = 2\n"
            "mu = 2.5   # spectral parameter\n"
            "\n"
            "d = 1\n"
            "n-samples = 300\n"
            "n_samples = 200  # a later line wins\n"
        )
        cfg_file.with_name("x.mat").write_text("2 1\n0.5\n0.0\n0.0\n0.25\n")
        out = tmp_path / "z.csv"
        argv = ["conv", "--config", str(cfg_file), "--r", str(tmp_path / "x.mat"), "--s", str(tmp_path / "x.mat")]
        assert main(argv + ["--output", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        # the values are typed by the flags they name
        assert report["params"] == {"q": 2, "d": 1, "mu": 2.5}
        assert isinstance(report["params"]["q"], int) and isinstance(report["params"]["mu"], float)
        assert report["n_samples"] == 200

    def test_missing_equals_reports_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("q = 1\njust words\n")
        assert main(["check", "--config", str(cfg_file)]) == 1
        assert _error_line(capsys).startswith(f"{cfg_file}:2: expected key=value")

    def test_empty_value_reports_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("mu =\n")
        assert main(["check", "--config", str(cfg_file)]) == 1
        assert _error_line(capsys).startswith(f"{cfg_file}:1: empty key or value")

    def test_wrong_type_names_the_field(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("q = two\n")
        assert main(["check", "--config", str(cfg_file)]) == 1
        assert _error_line(capsys).startswith(f"{cfg_file}:1: field 'q'")


def _record_pools(monkeypatch) -> list:
    """Replace the CLI's thread pool by one that records its max_workers and
    maps on the calling thread; return the record."""
    pools = []

    class Inline:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Inline)
    return pools


class TestSeeding:
    def test_flag_beats_config_beats_env(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 5\n")
        base = ["eval-bessel", "--q", "1", "--d", "1", "--mu", "1.5", "--eigs", "0.5"]

        def seed_of(*extra):
            assert main(base + list(extra)) == 0
            return json.loads(capsys.readouterr().out)["seed"]

        monkeypatch.setenv("CONEBESSEL_SEED", "7")
        assert seed_of("--config", str(cfg_file), "--seed", "3") == 3
        assert seed_of("--seed", "3", "--config", str(cfg_file)) == 3
        assert seed_of("--config", str(cfg_file)) == 5
        assert seed_of() == 7
        monkeypatch.delenv("CONEBESSEL_SEED")
        assert seed_of() == 0

    @pytest.mark.parametrize("argv", [
        ["check", "--criterion", "2"],
        ["clt", "--q", "1", "--d", "1", "--mu", "1.5", "--steps", "2", "--replicas", "3"],
        ["eval-bessel", "--q", "1", "--d", "1", "--mu", "1.5", "--eigs", "0.5"],
    ])
    def test_negative_seed_rejected_from_flag_config_and_env(self, argv, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = -1\n")
        out = tmp_path / "out.json"
        for extra, env in ((["--seed", "-1"], None), (["--config", str(cfg_file)], None), ([], "-1")):
            if env is None:
                monkeypatch.delenv("CONEBESSEL_SEED", raising=False)
            else:
                monkeypatch.setenv("CONEBESSEL_SEED", env)
            assert main(argv + extra + ["--output", str(out)]) == 1
            assert "expected a non-negative integer, got '-1'" in _error_line(capsys)
            assert not out.exists()

    def test_stream_split_is_deterministic(self):
        a = stream_rng(11, 2, 0).standard_normal(4)
        b = stream_rng(11, 2, 0).standard_normal(4)
        c = stream_rng(11, 3, 0).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_parallel_stack_same_at_every_worker_count(self):
        draw = lambda m, rng: rng.standard_normal((m, 2))
        for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
            one, two, three = (_parallel_stack(n, w, 42, 9, draw) for w in (1, 2, 3))
            assert one.shape == (n, 2)
            assert np.array_equal(one, two) and np.array_equal(one, three)
            if n <= _BLOCK:  # one block: the single stream of the whole budget
                assert np.array_equal(one, draw(n, stream_rng(42, 9, 0)))
        assert not np.array_equal(one, _parallel_stack(n, 3, 43, 9, draw))

    def test_pool_has_no_more_threads_than_blocks(self, tmp_path, monkeypatch, capsys):
        pools = _record_pools(monkeypatch)
        draw = lambda m, rng: rng.standard_normal((m, 1))
        assert _parallel_stack(3 * _BLOCK + 7, 64, 0, 9, draw).shape == (3 * _BLOCK + 7, 1)
        assert pools == [4]
        r = tmp_path / "r.mat"
        write_matrix_text(r, np.diag([1.0, 0.5]), d=1)
        argv = ["conv", "--q", "2", "--d", "1", "--mu", "2.5", "--r", str(r), "--s", str(r),
                "--n", "64", "--workers", "64", "--output", str(tmp_path / "z.csv")]
        assert main(argv) == 0
        capsys.readouterr()
        assert pools == [4]  # one block runs on the calling thread

    def test_conv_and_wishart_bytes_do_not_depend_on_workers(self, tmp_path, capsys):
        r = tmp_path / "r.mat"
        write_matrix_text(r, np.array([[1.0, 0.5j], [-0.5j, 0.5]]), d=2)
        out = tmp_path / "out.csv"
        common = ["--q", "2", "--d", "2", "--mu", "3.5", "--seed", "3", "--n", str(_BLOCK + 5),
                  "--output", str(out)]
        for cmd in (["conv", "--r", str(r), "--s", str(r)], ["wishart", "--scale-sq", str(r)]):
            runs = []
            for workers in ("1", "2", "3"):
                assert main(cmd + common + ["--workers", workers]) == 0
                report = json.loads(capsys.readouterr().out)
                assert report.pop("workers") == int(workers)
                runs.append((report, out.read_bytes()))
            assert runs[0] == runs[1] == runs[2]


class TestNumericHelpers:
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

    def test_quick_checks_draw_from_their_own_streams(self, monkeypatch, capsys):
        argv = ["check", "--q", "2", "--d", "1", "--mu", "3.0", "--seed", "0"]

        def details():
            main(argv)
            return {c["name"]: c["details"] for c in json.loads(capsys.readouterr().out)["checks"]}

        plain = details()
        sample = acceptance.sample_ball_batch

        def one_more_draw(p, n, rng):
            rng.standard_normal()
            return sample(p, n, rng)

        monkeypatch.setattr(acceptance, "sample_ball_batch", one_more_draw)
        patched = details()
        for name in ("product-formula", "wishart-fourier", "moment-closed-form"):
            assert patched[name] == plain[name], name

    def test_raising_quick_check_is_a_failed_entry(self, monkeypatch, capsys):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(acceptance, "moment", boom)
        assert main(["check", "--q", "2", "--d", "1", "--mu", "3.0", "--seed", "0"]) == 2
        report = json.loads(capsys.readouterr().out)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["moment-closed-form"]
        assert failed[0]["details"] == {"error": "RuntimeError: boom"}
        assert not report["passed"] and len(report["checks"]) == 5

    def test_criteria_run_through_the_cli_binding(self, monkeypatch, capsys):
        # the benchmark's tracer wraps conebessel.cli.run_criterion by that name
        calls = []

        def recorder(index, seed):
            calls.append((index, seed))
            return run_criterion(index, seed)

        monkeypatch.setattr(cli, "run_criterion", recorder)
        assert main(["check", "--criterion", "2", "--seed", "0"]) == 0
        assert calls == [(2, 0)]
        assert [c["index"] for c in json.loads(capsys.readouterr().out)["criteria"]] == [2]

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

    @pytest.mark.parametrize("mode", [["--full"], ["--criterion", "2"]])
    @pytest.mark.parametrize("how", ["flags", "config"])
    def test_criteria_reject_parameter_flags(self, mode, how, tmp_path, monkeypatch, capsys):
        # the criteria fix their own (q, d, mu): a parameter given to them is
        # rejected before any criterion runs, not ignored
        def never(index, seed):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(cli, "run_criterion", never)
        out = tmp_path / "report.json"
        for key, value in (("q", "3"), ("d", "2"), ("mu", "9")):
            if how == "flags":
                extra = [f"--{key}", value]
            else:
                cfg = tmp_path / f"{key}.cfg"
                cfg.write_text(f"{key} = {value}\n")
                extra = ["--config", str(cfg)]
            assert main(["check", *mode, *extra, "--seed", "0", "--output", str(out)]) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "quick-check" in json.loads(err)["error"]
            assert not out.exists()


    def test_repeated_criterion_runs_once_at_any_worker_count(self, capsys):
        reports = []
        for workers in ("1", "2"):
            argv = ["check", "--criterion", "2", "--criterion", "1", "--criterion", "2"]
            assert main(argv + ["--seed", "0", "--workers", workers]) == 0
            report = _report(capsys.readouterr().out)
            assert [c["index"] for c in report["criteria"]] == [1, 2]
            del report["workers"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_pool_has_no_more_threads_than_criteria(self, monkeypatch, capsys):
        pools = _record_pools(monkeypatch)
        argv = ["check", "--criterion", "1", "--criterion", "2", "--seed", "0", "--workers", "64"]
        assert main(argv) == 0
        assert [c["index"] for c in _report(capsys.readouterr().out)["criteria"]] == [1, 2]
        assert pools == [2]

    # criterion 6 checks the norm bound on its own draws only: neither the
    # process-wide watermark nor the criteria run before it change its entry
    def test_criterion_6_is_the_same_before_and_after_criterion_17(self, monkeypatch):
        monkeypatch.setattr(ball_measure, "_norm_excess", 0.0)  # as in a fresh process
        before = run_criterion(6, 0)
        assert run_criterion(17, 0)["passed"]
        assert run_criterion(6, 0)["details"] == before["details"]

    def test_criterion_6_entry_does_not_depend_on_the_others_named(self, monkeypatch, capsys):
        entries = []
        for extra in ([], ["--criterion", "17"]):
            monkeypatch.setattr(ball_measure, "_norm_excess", 0.0)  # as in a fresh process
            assert main(["check", "--criterion", "6", *extra, "--seed", "0"]) == 0
            entries.append(_report(capsys.readouterr().out)["criteria"][0])
        assert entries[0] == entries[1]


class TestReportLayout:
    """Samplers print one JSON line; check prints an indented report. Both
    keep their keys in a fixed order."""

    META = ["seed", "workers", "version"]

    def test_sampler_summary_is_one_line(self, tmp_path, capsys):
        r = tmp_path / "r.mat"
        write_matrix_text(r, np.diag([1.0, 0.5]), d=1)
        common = ["--q", "2", "--d", "1", "--mu", "2.5", "--n", "50", "--output", str(tmp_path / "z.csv")]
        for argv, extra in (
            (["conv", "--r", str(r), "--s", str(r)], []),
            (["wishart", "--scale-sq", str(r)], ["fourier_panel"]),
        ):
            assert main(argv + common) == 0
            out = capsys.readouterr().out
            report = json.loads(out)
            assert out == json.dumps(report) + "\n"
            assert list(report) == ["experiment", "written", "n_samples", *extra, *self.META, "params"]

    @pytest.mark.parametrize("argv,keys", [
        (["--q", "1", "--d", "1", "--mu", "1.5"], ["experiment", "checks", "passed", *META, "params"]),
        (["--criterion", "2"], ["experiment", "criteria", "passed", *META]),
    ])
    def test_check_report_is_indented(self, argv, keys, capsys):
        assert main(["check", "--seed", "0"] + argv) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        assert list(report) == keys


class TestCriterionRunner:
    def test_unknown_index_rejected(self):
        for index in (12, 16, 99):
            with pytest.raises(ValueError, match="no acceptance criterion"):
                run_criterion(index)

    def test_failure_is_captured_not_raised(self):
        # registry indices are stable; a valid one always returns a dict
        res = run_criterion(2, seed=0)
        assert set(res) >= {"index", "name", "passed", "runtime_s", "details"}


class TestTally:
    def test_passes_and_worst_ratio(self):
        assert _tally([0.5, 2.0, 1.0], [1.0, 1.0, 1.0]) == {
            "n_pass": 2, "n_total": 3, "worst_ratio": 2.0}

    def test_nan_deviation_fails_without_raising_worst(self):
        assert _tally([float("nan"), 0.25], [1.0, 1.0]) == {
            "n_pass": 1, "n_total": 2, "worst_ratio": 0.25}
        assert _tally([np.float64("nan")], [1.0]) == {"n_pass": 0, "n_total": 1, "worst_ratio": 0.0}

    def test_zero_tolerance_uses_the_floor(self):
        tally = _tally([0.0, 1e-299], [0.0, 0.0])
        assert tally["n_pass"] == 1
        assert tally["worst_ratio"] == pytest.approx(10.0, rel=1e-12)


def _report(text: str) -> dict:
    """A JSON report without what differs between two equal runs: the wall
    times and the name of the file written."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in ("runtime_s", "written")}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return strip(json.loads(text))


class TestConfigMatchesFlags:
    """A config file is a second spelling of a subcommand's value flags: each
    key acts exactly like its flag, or the run is rejected."""

    @pytest.fixture
    def mats(self, tmp_path):
        paths = {}
        for name, mat in (("r", np.diag([1.0, 0.5])), ("s", np.diag([0.5, 0.25])),
                          ("x", np.array([[0.5, 0.1], [0.1, 0.25]])),
                          ("scale", np.array([[1.0, 0.2], [0.2, 0.6]]))):
            paths[name] = str(tmp_path / f"{name}.mat")
            write_matrix_text(paths[name], mat, d=1)
        return paths

    @staticmethod
    def _runs(mats):
        """(subcommand, value flags) of one run per subcommand, covering every
        value flag of each; the two aliases appear as config keys below."""
        common = {"q": "2", "d": "1", "mu": "2.5", "seed": "4", "workers": "2"}
        return [
            ("eval-bessel", {**common, "eigs": "0.5,0.25", "tol": "1e-12"}),
            ("eval-bessel", {**common, "x": mats["x"], "tol": "1e-11"}),
            ("conv", {**common, "r": mats["r"], "s": mats["s"], "n": "300"}),
            ("conv", {**common, "r": mats["r"], "s": mats["s"], "n_samples": "200"}),
            ("wishart", {**common, "scale_sq": mats["scale"], "t": "0.5", "n": "300"}),
            ("clt", {**common, "step": "point", "step_file": mats["s"], "steps": "8",
                     "replicas": "50", "grid": "0.5,0.9"}),
            ("clt", {**common, "n_steps": "6", "replicas": "40"}),
            ("slln", {**common, "rule": "power", "lam": "1.5", "n_max": "8", "replicas": "10"}),
            ("check", {"q": "1", "d": "1", "mu": "1.5", "seed": "2"}),
            ("check", {"criterion": "2", "seed": "1"}),
        ]

    def test_config_gives_the_same_output_as_flags(self, tmp_path, mats, capsys):
        for i, (cmd, values) in enumerate(self._runs(mats)):
            outs = []
            for how in ("flags", "config"):
                values = dict(values, output=str(tmp_path / f"{cmd}{i}.{how}.out"))
                if how == "flags":
                    argv = [cmd] + [a for k, v in values.items() for a in (f"--{k.replace('_', '-')}", v)]
                else:
                    cfg = tmp_path / f"{cmd}{i}.cfg"
                    # hyphens and underscores are interchangeable in keys
                    cfg.write_text("".join(f"{k.replace('_', '-') if j % 2 else k} = {v}\n"
                                           for j, (k, v) in enumerate(values.items())))
                    argv = [cmd, "--config", str(cfg)]
                assert main(argv) == 0, (cmd, how)
                printed = capsys.readouterr().out
                written = open(values["output"], "rb").read()
                # samplers write CSV bytes, the others the printed report
                outs.append((_report(printed), written if cmd in ("conv", "wishart") else _report(written)))
            assert outs[0] == outs[1], cmd

    def test_steps_and_step_take_effect(self, tmp_path, capsys):
        cfg = tmp_path / "clt.cfg"
        cfg.write_text("q = 1\nd = 1\nmu = 1.5\nsteps = 8\nstep = point\nreplicas = 100\n")
        assert main(["clt", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_final"] == 8
        assert report["sigma2_closed"] == [[1.0 / 3.0]]  # I/(2 mu): the point step

    def test_flag_beats_config(self, tmp_path, mats, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(f"q = 2\nd = 1\nmu = 2.5\nr = {mats['r']}\ns = {mats['s']}\nn = 50\n")
        out = tmp_path / "z.csv"
        assert main(["conv", "--config", str(cfg), "--n", "30", "--output", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 30
        # a repeatable flag on the command line replaces the config's list
        cfg.write_text("criterion = 99\n")
        assert main(["check", "--criterion", "2", "--config", str(cfg)]) == 0
        assert [c["index"] for c in json.loads(capsys.readouterr().out)["criteria"]] == [2]

    @pytest.mark.parametrize("line, what", [
        ("mu_typo = 9", "'mu_typo' names no value flag"),
        ("criterion = 2", "'criterion' names no value flag"),  # not a conv flag
        ("full = 1", "'full' names no value flag"),  # a switch, not a value flag
        ("config = other.cfg", "'config' names no value flag"),
        ("n = 0", "field 'n': expected a positive integer"),
        ("mu = high", "field 'mu'"),
    ])
    def test_bad_key_or_value_names_file_and_line(self, tmp_path, mats, capsys, line, what):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(f"q = 2\nd = 1\nmu = 2.5\nr = {mats['r']}\n{line}\n")
        assert main(["conv", "--config", str(cfg), "--s", mats["s"]]) == 1
        err = _error_line(capsys)
        assert err.startswith(f"{cfg}:5: ") and what in err

    def test_bad_choice_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "clt.cfg"
        cfg.write_text("step = walk\n")
        assert main(["clt", "--config", str(cfg)]) == 1
        assert _error_line(capsys).startswith(f"{cfg}:1: field 'step': invalid choice")


class TestUsageErrors:
    @pytest.mark.parametrize("argv, what", [
        ([], "required: command"),
        (["conv", "--bogus"], "unrecognized arguments"),
        (["clt", "--step", "walk"], "invalid choice"),
        (["check", "--q", "two"], "invalid int value"),
        (["slln", "--q", "1", "--d", "1", "--mu", "1.0", "--n-max", "0"], "--n-max"),
        (["conv", "--q", "1", "--d", "1", "--mu", "1.5", "--n", "0"], "--n"),
        (["clt", "--q", "1", "--d", "1", "--mu", "1.5", "--replicas", "0"], "--replicas"),
        (["clt", "--q", "1", "--d", "1", "--mu", "1.5", "--steps", "-3"], "--steps"),
        (["conv", "--q", "1", "--d", "1", "--mu", "1.5"], "needs --r FILE and --s FILE"),
        (["eval-bessel", "--q", "1", "--d", "1", "--mu", "inf", "--eigs", "1"], "finite mu"),
        (["wishart", "--q", "1", "--d", "1", "--mu", "1.5", "--n", "1"], "at least 2 samples"),
        (["clt", "--q", "1", "--d", "1", "--mu", "1.5", "--steps", "8", "--replicas", "1"],
         "at least 2 samples"),
    ])
    def test_one_line_json_and_exit_one(self, argv, what, capsys):
        assert main(argv) == 1
        assert what in _error_line(capsys)

    def test_rejected_sampling_runs_write_nothing(self, tmp_path, capsys):
        one = tmp_path / "one.mat"
        one.write_text("1 1\n1.0\n")
        out = tmp_path / "out.csv"
        base = ["--q", "1", "--d", "1", "--output", str(out)]
        for argv, what in (
            (["conv", "--mu", "inf", "--n", "3", "--r", str(one), "--s", str(one)], "finite mu"),
            (["wishart", "--mu", "1.5", "--t", "inf"], "finite and nonnegative"),
            (["wishart", "--mu", "1.5", "--n", "1"], "at least 2 samples"),
        ):
            assert main(argv + base) == 1
            assert what in _error_line(capsys)
            assert not out.exists()

    def test_step_file_needs_point_step(self, tmp_path, capsys):
        base = ["clt", "--q", "1", "--d", "1", "--mu", "1.5", "--steps", "2", "--replicas", "3"]
        missing = str(tmp_path / "missing.mat")
        assert main(base + ["--step", "wishart", "--step-file", missing]) == 1
        assert "--step-file" in _error_line(capsys)
        cfg = tmp_path / "clt.cfg"
        cfg.write_text(f"step = wishart\nstep_file = {missing}\n")
        assert main(base + ["--config", str(cfg)]) == 1
        assert "--step-file" in _error_line(capsys)

    def test_lam_needs_power_rule(self, tmp_path, capsys):
        base = ["slln", "--q", "1", "--d", "1", "--mu", "1.5", "--n-max", "8", "--replicas", "20"]
        assert main(base + ["--rule", "linear", "--lam", "0.5"]) == 1
        assert "--lam" in _error_line(capsys)
        cfg = tmp_path / "slln.cfg"
        cfg.write_text("lam = 0.5\n")
        assert main(base + ["--config", str(cfg)]) == 1
        assert "--lam" in _error_line(capsys)
        # unset, the power rule runs at its old default exponent
        assert main(base + ["--rule", "power"]) == 0
        assert json.loads(capsys.readouterr().out)["lam"] == 1.0

    def test_full_excludes_criterion(self, tmp_path, capsys):
        assert main(["check", "--full", "--criterion", "2"]) == 1
        assert "--full" in _error_line(capsys)
        cfg = tmp_path / "check.cfg"
        cfg.write_text("criterion = 2\n")
        assert main(["check", "--full", "--config", str(cfg)]) == 1
        assert "--full" in _error_line(capsys)

    def test_eval_bessel_takes_one_input(self, tmp_path, capsys):
        base = ["eval-bessel", "--q", "1", "--d", "1", "--mu", "1.5"]
        missing = str(tmp_path / "missing.mat")
        assert main(base + ["--eigs", "0.5", "--x", missing]) == 1
        assert "--x" in _error_line(capsys)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("eigs = 0.5\n")
        assert main(base + ["--config", str(cfg), "--x", missing]) == 1
        assert "--eigs" in _error_line(capsys)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["clt", "--help"])
        assert exc.value.code == 0
        assert "(default: 64)" in capsys.readouterr().out


class TestInputValidation:
    def _mat(self, tmp_path, name, mat, d=1):
        path = tmp_path / f"{name}.mat"
        write_matrix_text(path, mat, d=d)
        return str(path)

    @pytest.mark.parametrize("eigs", ["nan,0", "1,nan", "inf,0"])
    def test_non_finite_eigenvalues_rejected(self, eigs, capsys):
        assert main(["eval-bessel", "--q", "2", "--d", "1", "--mu", "3", "--eigs", eigs]) == 1
        assert "not finite" in _error_line(capsys)

    def test_non_finite_matrix_entry_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nan.mat"
        bad.write_text("2 1\nnan\n0.0\n0.0\n1.0\n")
        good = self._mat(tmp_path, "s", np.eye(2))
        argv = ["conv", "--q", "2", "--d", "1", "--mu", "2.5", "--r", str(bad), "--s", good, "--n", "10",
                "--output", str(tmp_path / "z.csv")]
        assert main(argv) == 1
        assert "must be finite" in _error_line(capsys)
        assert not (tmp_path / "z.csv").exists()

    def test_non_hermitian_and_indefinite_matrices_rejected(self, tmp_path, capsys):
        skew = self._mat(tmp_path, "skew", np.array([[1.0, 0.5], [0.0, 1.0]]))
        neg = self._mat(tmp_path, "neg", np.diag([1.0, -1.0]))
        good = self._mat(tmp_path, "good", np.eye(2))
        base = ["--q", "2", "--d", "1", "--mu", "3", "--output", str(tmp_path / "out")]
        for argv, what in (
            (["eval-bessel", "--x", skew], "not Hermitian"),
            (["conv", "--r", neg, "--s", good, "--n", "10"], "not positive semidefinite"),
            (["conv", "--r", good, "--s", skew, "--n", "10"], "not Hermitian"),
            (["wishart", "--scale-sq", skew, "--n", "10"], "not Hermitian"),
            (["wishart", "--scale-sq", neg, "--n", "10"], "not positive semidefinite"),
            (["clt", "--step", "point", "--step-file", neg, "--steps", "2", "--replicas", "3"],
             "not positive semidefinite"),
        ):
            assert main(argv[:1] + base + argv[1:]) == 1, argv
            assert what in _error_line(capsys), argv
        # the Bessel function is defined on every Hermitian matrix
        assert main(["eval-bessel", *base, "--x", neg]) == 0
        capsys.readouterr()
        # an eigenvalue of -1e-12 is roundoff, inside the cone's clamp tolerance
        near = self._mat(tmp_path, "near", np.diag([1.0, -1e-12]))
        assert main(["conv", *base, "--r", near, "--s", good, "--n", "10"]) == 0
        capsys.readouterr()

    def test_wishart_scale_file_has_the_cone_rule_of_every_matrix_file(self, tmp_path, capsys):
        # -2e-9 is inside check_matrix's clamp at ||h||_F = 1; the law checks
        # nothing stricter, at any time t
        near = tmp_path / "near.mat"
        near.write_text("2 1\n1.0\n0.0\n0.0\n-2e-9\n")
        base = ["wishart", "--q", "2", "--d", "1", "--mu", "3", "--n", "10", "--scale-sq", str(near),
                "--output", str(tmp_path / "w.csv")]
        for t in ("1", "1000"):
            assert main(base + ["--t", t]) == 0, t
            capsys.readouterr()
        far = tmp_path / "far.mat"
        far.write_text("2 1\n1.0\n0.0\n0.0\n-3e-9\n")
        assert main(base[:-4] + ["--scale-sq", str(far)]) == 1
        msg = _error_line(capsys)
        assert str(far) in msg and "not positive semidefinite" in msg
