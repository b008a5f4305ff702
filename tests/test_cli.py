import json
import warnings

import pytest

from porobiot.cli import (ConfigError, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER,
                          main, parse_values, resolve_config)


def run_cli(args):
    return main(args)


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config("manufactured")
        assert cfg["scheme"]["kind"] == "monolithic"
        assert cfg["material"]["alpha"] == "1.0"

    def test_mandel_material_defaults(self):
        cfg = resolve_config("mandel")
        assert float(cfg["material"]["mu"]) == 2.475e9
        assert float(cfg["material"]["permeability"]) == pytest.approx(
            9.869233e-11)

    def test_file_beats_default(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[scheme]\nkind = splitting\ntol = 1e-9\n")
        cfg = resolve_config("manufactured", config_path=ini)
        assert cfg["scheme"]["kind"] == "splitting"
        assert cfg["scheme"]["tol"] == "1e-9"

    def test_override_beats_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[scheme]\nkind = splitting\n")
        cfg = resolve_config("manufactured", config_path=ini,
                             overrides=["scheme.kind=monolithic"])
        assert cfg["scheme"]["kind"] == "monolithic"

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_config("manufactured", overrides=["scheme.zeta=1"])
        ini = tmp_path / "bad.ini"
        ini.write_text("[scheme]\nzeta = 1\n")
        with pytest.raises(ConfigError):
            resolve_config("manufactured", config_path=ini)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("manufactured", config_path="/nonexistent.ini")

    def test_parse_values(self):
        vals = parse_values("logspace(-2,2,9)")
        assert len(vals) == 9
        assert vals[0] == pytest.approx(1e-2)
        assert list(parse_values("1,0.5,0.25")) == [1.0, 0.5, 0.25]
        with pytest.raises(ConfigError):
            parse_values("logspace(1,2)")
        with pytest.raises(ConfigError):
            parse_values("a,b")


class TestSubcommands:
    def test_manufactured_smoke(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["manufactured", "--case", "linear", "--h", "0.125",
                        "--tau", "0.25", "--scheme", "monolithic",
                        "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "h,tau,err_p,err_u,err_divu,err_q,order_p,order_u"
        assert len(lines) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "manufactured"
        assert manifest["config"]["scheme"]["kind"] == "monolithic"
        assert "seed" not in manifest

    def test_sweep_cell_count(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["sweep", "--case", "t1c1", "--scheme", "splitting",
                        "--L1-grid", "logspace(-1,1,3)",
                        "--L2-grid", "logspace(-1,1,3)",
                        "--h", "0.125", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 9

    def test_sweep_manifest_lists_cells_out_of_range(self, tmp_path):
        # at tau = 4 some t1c1 cells leave a certified range: the manifest
        # lists each with its count, and sweep.csv keeps its columns
        out = tmp_path / "run"
        args = ["sweep", "--case", "t1c1", "--scheme", "splitting",
                "--h", "0.25", "--L1-grid", "1,2.72,10", "--L2-grid", "0.3,3"]
        assert run_cli(args + ["--tau", "4", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        cells = manifest["range_excursions"]
        assert cells and all(c["count"] > 0 for c in cells)
        assert {(c["L1"], c["L2"]) for c in cells} <= {
            (l1, l2) for l1 in (1.0, 2.72, 10.0) for l2 in (0.3, 3.0)}
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "L1,L2,iters,status" and len(lines) == 1 + 6
        assert run_cli(args + ["--out", str(tmp_path / "calm")]) == EXIT_OK
        calm = json.loads((tmp_path / "calm" / "manifest.json").read_text())
        assert calm["range_excursions"] == []

    @pytest.mark.parametrize("extra", [
        [], ["--set", "scheme.kind=splitting"],
        ["--set", "solver.method=gmres"]], ids=["lu", "splitting", "gmres"])
    def test_an_overflowing_step_is_a_config_error(self, tmp_path, capsys,
                                                   extra):
        # one finite step of 1e308 s overflows a system matrix, by every
        # path: bad input, named by its step size, with no overflow warning
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["mandel", "--steps", "1", "--set", "problem.nx=4",
                            "--set", "problem.ny=4", "--set",
                            "problem.dt=1e308"] + extra + ["--out", str(out)])
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.strip().splitlines()
        assert "step size tau=1e+308" in line and "not finite" in line
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "manifest.json").exists()

    def test_mandel_row_count(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["mandel", "--nonlinear", "linear", "--dt", "1",
                        "--steps", "5", "--set", "problem.nx=10",
                        "--set", "problem.ny=4", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "mandel.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6  # header + initial + 5 steps

    def test_sensitivity_smoke(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["sensitivity", "--case", "linear", "--scheme",
                        "splitting", "--axis", "alpha", "--values", "0,1",
                        "--h", "0.125", "--L1", "1.0", "--L2", "1.0",
                        "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "sensitivity.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_sensitivity_alpha_axis_starts_at_zero(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["sensitivity", "--case", "t1c1", "--axis", "alpha",
                        "--values=0,0.5", "--h", "0.25", "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "sensitivity.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["0", "0.5"]

    def test_verify_smoke(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["verify", "--case", "t1c1", "--scheme", "splitting",
                        "--h", "0.125", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "contraction.csv").exists()

    def test_verify_of_an_exact_step(self, tmp_path, capsys):
        # at L1 = L2 = 1, the slopes of the linear laws, the monolithic LU
        # step is exact: one iteration, one value, and no contraction to
        # speak of
        out = tmp_path / "run"
        code = run_cli(["verify", "--case", "linear", "--scheme",
                        "monolithic", "--h", "0.25", "--out", str(out)])
        assert code == EXIT_OK
        assert "solved exactly by one direct solve" in capsys.readouterr().out
        assert len((out / "contraction.csv").read_text().splitlines()) == 2

    def test_config_error_exit_code(self, tmp_path):
        code = run_cli(["manufactured", "--set", "bogus.key=1",
                        "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_unknown_case_exit_code(self, tmp_path):
        code = run_cli(["manufactured", "--case", "t7c7",
                        "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_schur_flow_key_unknown(self, tmp_path):
        code = run_cli(["manufactured", "--set", "scheme.schur_flow=true",
                        "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("args", [
        ["manufactured", "--case", "linear", "--h", "0.5", "--L1", "-1",
         "--L2", "1"],
        ["manufactured", "--case", "linear", "--h", "0.5",
         "--set", "scheme.tol=0"],
        ["mandel", "--steps", "1", "--set", "problem.nx=4",
         "--set", "problem.ny=4", "--set", "scheme.tol=0"],
        ["sweep", "--case", "linear", "--h", "0.5", "--scheme", "splitting",
         "--L1-grid", "0,1", "--L2-grid", "1"],
        ["sensitivity", "--case", "linear", "--h", "0.5", "--axis", "tau",
         "--values", "0.25", "--L1", "1", "--L2", "-1"],
        ["verify", "--case", "linear", "--h", "0.5", "--scheme", "splitting",
         "--L1", "0", "--L2", "1"],
        ["manufactured", "--case", "linear", "--h", "0.5",
         "--scheme", "monolithic", "--L1", "0", "--L2", "1"],
    ])
    def test_invalid_scheme_values_exit_code(self, tmp_path, args):
        assert run_cli(args + ["--out", str(tmp_path / "x")]) == EXIT_CONFIG

    @pytest.mark.parametrize("override", ["material.permeability=1e-14",
                                          "material.viscosity=1"])
    def test_mandel_material_overrides_reach_the_run(self, tmp_path, override):
        bodies = []
        for name, extra in (("default", []), ("override", ["--set", override])):
            out = tmp_path / name
            code = run_cli(["mandel", "--steps", "3", "--set", "problem.nx=8",
                            "--set", "problem.ny=8", "--out", str(out)] + extra)
            assert code == EXIT_OK
            bodies.append((out / "mandel.csv").read_bytes())
        assert bodies[0] != bodies[1]

    def test_mandel_law_ranges_reach_the_run(self, tmp_path):
        # the certified pressure range sets the law constants, hence L1
        bodies = []
        for name, extra in (("default", []),
                            ("ranges", ["--set", "laws.p_lo=0",
                                        "--set", "laws.p_hi=50"])):
            out = tmp_path / name
            code = run_cli(["mandel", "--nonlinear", "t2c3", "--steps", "3",
                            "--set", "problem.nx=8", "--set", "problem.ny=8",
                            "--out", str(out)] + extra)
            assert code == EXIT_OK
            bodies.append((out / "mandel.csv").read_bytes())
        assert bodies[0] != bodies[1]

    MANUFACTURED_RUNS = {
        "manufactured": (["manufactured", "--case", "t1c1", "--h", "0.25"],
                         "errors.csv"),
        "sweep": (["sweep", "--case", "t1c1", "--scheme", "splitting",
                   "--h", "0.25", "--L1-grid", "1,3", "--L2-grid", "0.5"],
                  "sweep.csv"),
        "sensitivity": (["sensitivity", "--case", "t1c1", "--scheme",
                         "splitting", "--h", "0.25", "--axis", "tau",
                         "--values", "0.25", "--L1", "3", "--L2", "2"],
                        "sensitivity.csv"),
    }

    @pytest.mark.parametrize("subcommand", sorted(MANUFACTURED_RUNS))
    def test_material_overrides_reach_the_run(self, tmp_path, subcommand):
        args, csv = self.MANUFACTURED_RUNS[subcommand]
        bodies = []
        for name, extra in (("default", []),
                            ("override", ["--set", "material.mu=3"])):
            out = tmp_path / name
            assert run_cli(args + ["--out", str(out)] + extra) == EXIT_OK
            bodies.append((out / csv).read_bytes())
        assert bodies[0] != bodies[1]

    @pytest.mark.parametrize("subcommand", sorted(MANUFACTURED_RUNS))
    def test_law_ranges_reach_the_run(self, tmp_path, monkeypatch, subcommand):
        # the certified ranges set the law constants of the material that
        # the drivers hand to the solver; with L1 and L2 given (sweep grid,
        # sensitivity flags) no CSV column depends on them
        from porobiot import bench
        seen = []
        original = bench.manufactured_problem

        def recording(mat, *args, **kwargs):
            seen.append((mat.b_law.admissible_range,
                         mat.h_law.admissible_range))
            return original(mat, *args, **kwargs)

        monkeypatch.setattr(bench, "manufactured_problem", recording)
        args, csv = self.MANUFACTURED_RUNS[subcommand]
        ranges = ["--set", "laws.p_lo=-0.5", "--set", "laws.p_hi=2",
                  "--set", "laws.s_lo=-0.25", "--set", "laws.s_hi=0.25"]
        assert run_cli(args + ["--out", str(tmp_path)] + ranges) == EXIT_OK
        assert seen and set(seen) == {((-0.5, 2.0), (-0.25, 0.25))}

    UNREAD_RUNS = {
        "mandel": ["mandel", "--steps", "2", "--set", "problem.nx=4",
                   "--set", "problem.ny=4"],
        "manufactured": ["manufactured", "--case", "t1c1", "--h", "0.25",
                         "--levels", "1"],
        "verify": ["verify", "--case", "t1c1", "--scheme", "splitting",
                   "--h", "0.25"],
        "sweep": ["sweep", "--case", "t1c1", "--scheme", "monolithic",
                  "--h", "0.25", "--L1-grid", "1", "--L2-grid", "1"],
        "sensitivity": ["sensitivity", "--case", "t1c1", "--scheme",
                        "monolithic", "--h", "0.25", "--axis", "tau",
                        "--values", "0.25", "--L1", "1", "--L2", "1"],
    }

    @pytest.mark.parametrize("subcommand, extra, ini", [
        ("sweep", ["--L1", "5"], None),
        ("sweep", ["--set", "scheme.l2=5"], None),
        ("sweep", [], "[scheme]\nl1 = 5\n"),
        ("sweep", ["--set", "solver.method=gmres"], None),
        ("sensitivity", ["--set", "solver.method=gmres"], None),
        ("sensitivity", [], "[solver]\nrtol = 1e-6\n"),
        ("mandel", ["--set", "problem.h=9", "--set", "problem.levels=4"],
         None),
        ("manufactured", ["--set", "problem.nx=4"], None),
        ("verify", ["--set", "problem.final_time=7"], None),
        ("sweep", [], "[problem]\nsteps = 3\n"),
        ("sensitivity", ["--set", "problem.probe_x=5"], None),
        ("manufactured", ["--scheme", "splitting", "--set",
                          "solver.method=gmres", "--set", "solver.rtol=0.5"],
         None),
        ("mandel", ["--scheme", "splitting"], "[solver]\nrestart = 5\n"),
        ("verify", ["--scheme", "splitting", "--set", "solver.method=gmres"],
         None),
        ("manufactured", ["--set", "solver.rtol=0.5"], None),
        ("mandel", ["--set", "solver.maxiter=5"], None),
        ("verify", ["--scheme", "monolithic"], "[solver]\nrestart = 5\n"),
    ], ids=["sweep-l1-flag", "sweep-l2-set", "sweep-l1-file",
            "sweep-solver-set", "sensitivity-solver-set",
            "sensitivity-solver-file", "mandel-unit-square-keys",
            "manufactured-slab-key", "verify-final-time", "sweep-steps-file",
            "sensitivity-probe", "manufactured-splitting-solver",
            "mandel-splitting-solver-file", "verify-splitting-method",
            "manufactured-lu-rtol", "mandel-lu-maxiter",
            "verify-lu-restart-file"])
    def test_unread_keys_are_config_errors(self, tmp_path, subcommand, extra,
                                           ini):
        # the sweep takes L1 and L2 from its grids, both runs solve by LU,
        # each run reads only the [problem] keys of its own domain, a
        # splitting run reads no [solver] key and an LU run no GMRES
        # control: a value the manifest would record but the run ignore is
        # an error
        args = self.UNREAD_RUNS[subcommand] + extra
        if ini is not None:
            (tmp_path / "run.ini").write_text(ini)
            args += ["--config", str(tmp_path / "run.ini")]
        out = tmp_path / "run"
        assert run_cli(args + ["--out", str(out)]) == EXIT_CONFIG
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("args", [
        ["mandel", "--nonlinear", "bogus"],
        ["mandel", "--steps", "0"],
        ["mandel", "--dt", "0"],
        ["mandel", "--set", "problem.nx=0"],
        ["mandel", "--set", "problem.a=-1"],
        ["mandel", "--probe", "1e9,1e9"],
        ["mandel", "--steps", "2", "--set", "material.viscosity=0"],
        ["mandel", "--steps", "2", "--set", "material.permeability="],
        ["mandel", "--steps", "2", "--set", "problem.probe_x=5"],
        ["mandel", "--set", "problem.steps="],
        ["manufactured", "--h", "0"],
        ["manufactured", "--h", "3"],
        ["manufactured", "--tau", "0"],
        ["manufactured", "--set", "material.lam=-5"],
        ["manufactured", "--set", "material.mu=0"],
        ["manufactured", "--set", "solver.method=gmres",
         "--set", "solver.restart=0"],
        ["manufactured", "--case", "linear", "--h", "0.25",
         "--set", "solver.method=gmres", "--set", "solver.maxiter=0"],
        ["manufactured", "--case", "linear", "--h", "0.25",
         "--set", "solver.method=gmres", "--set", "solver.rtol=0"],
        ["manufactured", "--case", "linear", "--h", "0.25",
         "--set", "solver.method=gmres", "--set", "solver.rtol=nan"],
        ["manufactured", "--case", "linear", "--h", "0.25",
         "--set", "solver.method=gmres", "--set", "solver.rtol=-1"],
        ["manufactured", "--set", "problem.levels=0"],
        ["manufactured", "--set", "scheme.max_iter=0"],
        ["manufactured", "--h", "0.5", "--set", "problem.levels=0.3"],
        ["manufactured", "--h", "0.5", "--set", "scheme.max_iter=0.3"],
        ["sensitivity", "--axis", "h", "--values", "0"],
        ["sensitivity", "--axis", "K", "--values", "0"],
        ["sweep", "--L1-grid", "1", "--L2-grid", ""],
        ["manufactured", "--h", "0.25", "--L1", "nan", "--L2", "1"],
        ["manufactured", "--h", "0.25", "--L1", "1", "--L2", "nan"],
        ["manufactured", "--h", "0.25", "--tol", "nan"],
        # a zero compressibility modulus, a non-finite final time or probe
        ["manufactured", "--case", "linear", "--h", "0.5",
         "--set", "material.biot_modulus=0"],
        ["manufactured", "--case", "t2c1", "--h", "0.5",
         "--set", "material.biot_modulus=0"],
        ["manufactured", "--case", "linear", "--h", "0.5",
         "--set", "problem.final_time=inf"],
        ["manufactured", "--case", "linear", "--h", "0.5",
         "--set", "problem.final_time=nan"],
        ["mandel", "--probe", "inf,5", "--steps", "1",
         "--set", "problem.nx=4", "--set", "problem.ny=4"],
        ["mandel", "--probe", "nan,5", "--steps", "1",
         "--set", "problem.nx=4", "--set", "problem.ny=4"],
        # 0.3 does not divide the final time 1.0 into whole steps
        ["manufactured", "--case", "t1c1", "--h", "0.25", "--tau", "0.3"],
        ["manufactured", "--h", "0.5", "--tau", "2"],
        ["sweep", "--case", "t1c1", "--scheme", "splitting", "--h", "0.25",
         "--L1-grid", "nan", "--L2-grid", "1"],
        # one end of a certified range without the other
        ["manufactured", "--case", "t1c3", "--h", "0.25",
         "--set", "laws.p_lo=0.5"],
        ["manufactured", "--case", "t1c3", "--h", "0.25",
         "--set", "laws.p_hi=0.5"],
        ["manufactured", "--case", "t1c3", "--h", "0.25",
         "--set", "laws.s_lo=-0.5"],
        ["manufactured", "--case", "t1c3", "--h", "0.25",
         "--set", "laws.s_hi=0.5"],
        ["mandel", "--steps", "2", "--set", "laws.p_lo=0"],
        # the linear laws have constant slopes, certified everywhere
        ["manufactured", "--case", "linear", "--h", "0.5",
         "--set", "laws.p_lo=nan", "--set", "laws.p_hi=1"],
        ["manufactured", "--case", "linear", "--h", "0.5",
         "--set", "laws.p_lo=0", "--set", "laws.p_hi=1e-9",
         "--set", "laws.s_lo=5", "--set", "laws.s_hi=6"],
        ["verify", "--case", "linear", "--h", "0.5",
         "--set", "laws.s_lo=-1", "--set", "laws.s_hi=1"],
        ["mandel", "--steps", "1", "--set", "problem.nx=4",
         "--set", "problem.ny=4", "--set", "laws.s_lo=-1",
         "--set", "laws.s_hi=1"],
        # 1 / L1 overflows the (u, q) system of the pressure elimination
        ["manufactured", "--h", "0.25", "--L1", "1e-320", "--L2", "1"],
        # each step is finite, but the time after the third is not
        ["mandel", "--steps", "3", "--set", "problem.nx=4",
         "--set", "problem.ny=4", "--set", "problem.dt=1e308"],
        # non-finite physical inputs
        ["mandel", "--steps", "2", "--set", "problem.force=nan"],
        ["mandel", "--steps", "2", "--set", "problem.force=inf"],
        ["manufactured", "--case", "t1c1", "--h", "0.25",
         "--set", "material.mu=nan"],
        ["manufactured", "--case", "t1c1", "--h", "0.25",
         "--set", "material.mu=inf"],
        ["manufactured", "--case", "t1c1", "--h", "0.25",
         "--set", "material.alpha=nan"],
        ["manufactured", "--case", "t1c1", "--h", "0.25",
         "--set", "material.alpha=inf"],
        # a negative Biot coefficient
        ["manufactured", "--case", "t1c1", "--h", "0.25",
         "--set", "material.alpha=-1"],
        ["sensitivity", "--case", "t1c1", "--h", "0.25", "--axis", "alpha",
         "--values=-1,-0.5"],
        ["sensitivity", "--case", "t1c1", "--h", "0.25", "--axis", "alpha",
         "--values=0.5,-1"],
        ["manufactured", "--case", "t1c1", "--h", "0.25",
         "--set", "material.permeability=inf"],
        ["manufactured", "--case", "t1c1", "--h", "0.25",
         "--set", "material.viscosity=inf"],
        # an h that does not split the unit square into whole cells
        ["manufactured", "--h", "0.3"],
        ["sensitivity", "--axis", "h", "--values", "0.3"],
    ], ids=lambda args: "_".join(a.lstrip("-") for a in args))
    def test_bad_input_is_a_config_error(self, tmp_path, capsys, args):
        # a value no run can use: one line on stderr, exit 2, no manifest
        out = tmp_path / "run"
        assert run_cli(args + ["--out", str(out)]) == EXIT_CONFIG
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", [
        ["manufactured"], ["verify"],
        ["sweep", "--L1-grid", "1", "--L2-grid", "1"],
        ["sensitivity", "--axis", "K", "--values", "1"]])
    @pytest.mark.parametrize("key", ["lam", "biot_modulus"])
    def test_unscaled_law_cases_refuse_lam_and_modulus(self, tmp_path,
                                                       command, key):
        # the t1c* laws are unscaled: a lam or Biot modulus off its default
        # would change nothing but the manifest
        out = tmp_path / "run"
        args = command + ["--case", "t1c1", "--h", "0.25", "--out", str(out)]
        assert run_cli(args + ["--set", f"material.{key}=5"]) == EXIT_CONFIG
        assert not (out / "manifest.json").exists()
        # the default value, however spelled, is accepted
        assert run_cli(args + ["--set", f"material.{key}=1"]) == EXIT_OK

    @pytest.mark.parametrize("args", [
        # L1 = 1e-300 makes the pressure elimination singular
        ["manufactured", "--h", "0.25", "--L1", "1e-300", "--L2", "1"],
        ["manufactured", "--case", "t1c1", "--scheme", "splitting",
         "--h", "0.25", "--set", "scheme.max_iter=2"],
    ], ids=["factorization", "manufactured-max-iter"])
    def test_solver_failures_write_nothing(self, tmp_path, args):
        out = tmp_path / "run"
        assert run_cli(args + ["--out", str(out)]) == EXIT_SOLVER
        assert not (out / "errors.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_verify_uses_solver_options(self, tmp_path):
        # verify runs the monolithic scheme through the [solver] GMRES,
        # whose one-iteration cap cannot reach the inner tolerance
        code = run_cli(["verify", "--scheme", "monolithic", "--h", "0.25",
                        "--set", "solver.method=gmres",
                        "--set", "solver.restart=1", "--set", "solver.maxiter=1",
                        "--set", "solver.rtol=1e-14",
                        "--out", str(tmp_path / "x")])
        assert code == EXIT_SOLVER

    def test_solver_failure_exit_code(self, tmp_path):
        # a one-iteration GMRES cap cannot reach the inner tolerance
        code = run_cli(["manufactured", "--case", "linear", "--h", "0.25",
                        "--set", "solver.method=gmres",
                        "--set", "solver.maxiter=1",
                        "--set", "solver.restart=1",
                        "--out", str(tmp_path / "x")])
        assert code == EXIT_SOLVER

    def test_gmres_solver_writes_reports(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["manufactured", "--case", "linear", "--h", "0.25",
                        "--set", "solver.method=gmres", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "linsolve.csv").read_text().strip().splitlines()
        assert lines[0] == "linsys,iters,relres,seconds"
        assert len(lines) > 1


class TestDeterminism:
    def test_identical_runs_byte_identical_csv(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli(["manufactured", "--case", "t1c1", "--h", "0.125",
                            "--scheme", "splitting", "--out", str(out)])
            assert code == EXIT_OK
            outs.append((out / "errors.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_deterministic(self, tmp_path):
        bodies = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(["sweep", "--case", "linear", "--scheme", "monolithic",
                     "--L1-grid", "1,2", "--L2-grid", "1",
                     "--h", "0.25", "--out", str(out)])
            bodies.append((out / "sweep.csv").read_bytes())
        assert bodies[0] == bodies[1]


class TestPrecedencePerKey:
    def test_flag_beats_set_beats_file(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[problem]\nh = 0.5\ntau = 0.5\n[scheme]\nkind = monolithic\n")
        out = tmp_path / "out"
        code = run_cli(["manufactured", "--config", str(ini),
                        "--set", "problem.h=0.25",
                        "--h", "0.125",       # flag wins for h
                        "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["problem"]["h"] == "0.125"
        assert manifest["config"]["problem"]["tau"] == "0.5"   # file value
        assert manifest["config"]["scheme"]["kind"] == "monolithic"
