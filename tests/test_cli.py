import json

import pytest

from sgdm_stability.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    OUTDIR_ENV,
    ConfigError,
    apply_overrides,
    load_config,
    main,
)


class TestConfigFile:
    def test_parses_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# full line comment\n"
            "dataset = synthetic   # trailing comment\n"
            "\n"
            "steps=0.01,0.05\n"
        )
        cfg = load_config(p)
        assert cfg == {"dataset": "synthetic", "steps": "0.01,0.05"}

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("dataset=synthetic\nnot a pair\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_overrides_win(self):
        merged = apply_overrides({"a": "1", "b": "2"}, ["b=3", "c = 4"])
        assert merged == {"a": "1", "b": "3", "c": "4"}

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["novalue"])


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert err.count("\n") == 1

    def test_missing_required_key(self, capsys):
        assert main(["recipe"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "'n'" in err

    def test_missing_data_file(self, capsys):
        assert main(["parse-data", "--overrides", "dataset=/no/such/file"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: data:")

    def test_malformed_data_file(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1 5:2 3:1\n")  # non-increasing indices
        assert main(["parse-data", "--overrides", f"dataset={p}"]) == EXIT_DATA
        assert "line 1" in capsys.readouterr().err


class TestParseData:
    def test_metadata_json(self, tmp_path, capsys):
        p = tmp_path / "tiny.txt"
        p.write_text("1 1:1 3:2\n-1 2:0.5\n1 1:4\n")
        assert main(["parse-data", "--overrides", f"dataset={p}"]) == EXIT_OK
        meta = json.loads(capsys.readouterr().out)
        assert meta["n"] == 3
        assert meta["dim"] == 3
        assert meta["labels"] == {"1": 2, "-1": 1}
        assert "known_shape" not in meta

    def test_known_shape_comparison(self, tmp_path, capsys):
        p = tmp_path / "mushrooms"
        p.write_text("1 1:1\n2 2:1\n")
        assert main(["parse-data", "--overrides", f"dataset={p}"]) == EXIT_OK
        meta = json.loads(capsys.readouterr().out)
        assert meta["known_shape"] == {"n": 8124, "dim": 112}
        assert meta["matches_known_shape"] is False


RUN_OVERRIDES = [
    "dataset=synthetic",
    "synth_n=40",
    "synth_dim=5",
    "steps=0.01,0.05",
    "betas=0,0.5",
    "reps=2",
    "epochs=2",
    "seed=7",
]


class TestRunStability:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["run-stability", "--overrides", *RUN_OVERRIDES, f"outdir={out}"])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "manifest.json" in stdout
        csvs = {p.name for p in out.glob("*.csv")}
        assert csvs == {
            "hb_beta0_step0.01.csv",
            "hb_beta0_step0.05.csv",
            "hb_beta0.5_step0.01.csv",
            "hb_beta0.5_step0.05.csv",
        }
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["repetitions"] == 2
        assert f"outdir={out}" in manifest["overrides"]
        assert len(manifest["grid"]) == 4

    def test_rerun_reproduces_csv_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run-stability", "--overrides", *RUN_OVERRIDES, f"outdir={out}"]) == EXIT_OK
        capsys.readouterr()
        for p1 in sorted(out1.glob("*.csv")):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_outdir_env_var_honored(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(OUTDIR_ENV, str(target))
        assert main(["run-stability", "--overrides", *RUN_OVERRIDES]) == EXIT_OK
        capsys.readouterr()
        assert (target / "manifest.json").exists()

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "dataset=synthetic\nsynth_n=40\nsynth_dim=5\nsteps=0.01\n"
            "betas=0\nreps=2\nepochs=1\nseed=1\n"
        )
        out = tmp_path / "o"
        rc = main(
            ["run-stability", "--config", str(cfgfile), "--overrides", f"outdir={out}", "reps=3"]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["repetitions"] == 3


class TestCheckBounds:
    BASE = [
        "dataset=synthetic",
        "synth_n=50",
        "synth_dim=5",
        "betas=0,0.5",
        "samples=4",
        "t=1n",
        "seed=3",
    ]

    def test_passes_within_cap(self, tmp_path, capsys):
        out = tmp_path / "bc"
        rc = main(["check-bounds", "--overrides", *self.BASE, f"outdir={out}", "step_fraction=0.5"])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "holds=True" in stdout
        reports = json.loads((out / "bound_check.json").read_text())
        assert len(reports) == 2
        assert all(r["holds"] for r in reports)

    def test_step_above_cap_is_refused(self, tmp_path, capsys):
        out = tmp_path / "bc2"
        rc = main(["check-bounds", "--overrides", *self.BASE, f"outdir={out}", "step=50.0"])
        assert rc == EXIT_REFUSED
        assert capsys.readouterr().err.startswith("error: precondition:")
        assert not (out / "bound_check.json").exists()


class TestNumericConfigErrors:
    """Out-of-range numbers exit 2 with a one-line message, before any work."""

    @pytest.mark.parametrize(
        "bad",
        [
            "reps=0",
            "epochs=0",
            "stride=-1",
            "max_train=-5",
            "steps=-0.1",
            "betas=1.0",
            "seed=-1",
            "fraction=1.0",
        ],
        ids=lambda item: item.split("=")[0],
    )
    def test_run_stability(self, bad, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run-stability", "--overrides", *RUN_OVERRIDES, bad, f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key {bad.split('=')[0]!r}:")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad", ["samples=0", "t=0", "step=0"], ids=lambda item: item.split("=")[0]
    )
    def test_check_bounds(self, bad, tmp_path, capsys):
        out = tmp_path / "bc"
        assert main(["check-bounds", "--overrides", *TestCheckBounds.BASE, bad, f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key {bad.split('=')[0]!r}:")
        assert err.count("\n") == 1
        assert not (out / "bound_check.json").exists()


class TestVerifyInvariants:
    def test_clean_pass(self, tmp_path, capsys):
        out = tmp_path / "inv"
        rc = main(
            [
                "verify-invariants",
                "--overrides",
                "betas=0,0.5",
                "losses=logistic",
                "check_steps=200",
                f"outdir={out}",
            ]
        )
        assert rc == EXIT_OK
        assert "0 failed" in capsys.readouterr().out
        report = json.loads((out / "invariants.json").read_text())
        assert all(r["status"] in ("pass", "skip") for r in report)

    def test_force_bug_fails_y_identity(self, tmp_path, capsys):
        out = tmp_path / "inv2"
        rc = main(
            [
                "verify-invariants",
                "--overrides",
                "betas=0.5",
                "losses=logistic",
                "check_steps=200",
                "force_bug=y_identity",
                f"outdir={out}",
            ]
        )
        assert rc == EXIT_REFUSED
        captured = capsys.readouterr()
        assert "FAIL y_identity" in captured.out
        assert captured.err.startswith("error: check-failed:")
        report = json.loads((out / "invariants.json").read_text())
        failures = [r for r in report if r["status"] == "fail"]
        assert failures and all(r["name"] == "y_identity" for r in failures)

    def test_beta_zero_skips_momentum_checks(self, tmp_path, capsys):
        out = tmp_path / "inv3"
        rc = main(
            [
                "verify-invariants",
                "--overrides",
                "betas=0",
                "losses=squared",
                "check_steps=200",
                f"outdir={out}",
            ]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        report = json.loads((out / "invariants.json").read_text())
        skipped = {r["name"] for r in report if r["status"] == "skip"}
        assert {"m_recursion", "nesterov_equivalence"} <= skipped

    def test_bad_force_bug_rejected(self, capsys):
        rc = main(["verify-invariants", "--overrides", "force_bug=divide_by_zero"])
        assert rc == EXIT_DATA
        assert "force_bug" in capsys.readouterr().err


class TestRecipe:
    def test_json_output(self, capsys):
        rc = main(
            ["recipe", "--overrides", "n=10000", "beta=0.9", "l_star=0.01", "alpha=1.0"]
        )
        assert rc == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["regime"] == "high_noise"
        assert rec["t"] == 100000
        assert rec["rho"] == pytest.approx(10.0)
        assert rec["step"] == pytest.approx(1e-3)

    def test_rejects_general_variant(self, capsys):
        rc = main(
            ["recipe", "--overrides", "n=100", "beta=0.5", "l_star=0.1", "alpha=1", "variant=general"]
        )
        assert rc == EXIT_DATA


class TestPlot:
    HEADER = "epoch,mean_dist,std_dist,censored_count\n"

    def _series(self, path, scale):
        path.write_text(self.HEADER + "".join(f"{e},{scale * e},{0.1 * scale},0\n" for e in (1, 2, 3)))

    def test_renders_multiple_inputs(self, tmp_path, capsys):
        names = ["one", "two", "three", "four"]
        for i, n in enumerate(names):
            self._series(tmp_path / f"{n}.csv", 0.1 * (i + 1))
        inputs = ",".join(str(tmp_path / f"{n}.csv") for n in names)
        out = tmp_path / "fig.svg"
        rc = main(["plot", "--overrides", f"inputs={inputs}", f"output={out}", "title=sweep"])
        assert rc == EXIT_OK
        capsys.readouterr()
        svg = out.read_text()
        assert svg.startswith("<svg") or "<svg" in svg
        order = [svg.index(n) for n in names]
        assert order == sorted(order)

    def test_default_output_under_outdir(self, tmp_path, capsys):
        self._series(tmp_path / "s.csv", 1.0)
        out = tmp_path / "plots"
        rc = main(
            ["plot", "--overrides", f"inputs={tmp_path / 's.csv'}", f"outdir={out}"]
        )
        assert rc == EXIT_OK
        assert (out / "plot.svg").exists()
        capsys.readouterr()

    def test_schema_violation_names_column_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,mean_dist\n1,0.5\n")
        out = tmp_path / "no.svg"
        rc = main(["plot", "--overrides", f"inputs={bad}", f"output={out}"])
        assert rc == EXIT_DATA
        assert "std_dist" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_csv_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(self.HEADER)
        out = tmp_path / "no.svg"
        rc = main(["plot", "--overrides", f"inputs={empty}", f"output={out}"])
        assert rc == EXIT_DATA
        assert "no data rows" in capsys.readouterr().err
        assert not out.exists()
