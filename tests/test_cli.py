import csv
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from shuffle_regress import (
    brute_force,
    cli,
    errors,
    fptas_solve,
    gen_gaussian_noisy,
    gen_uniform_noisy,
)
from shuffle_regress.cli import SWEEP_COLUMNS, main, order_stats_report, w2_report
from shuffle_regress.model import random_unit_vector, read_instance_record, responses
from shuffle_regress.oracle import ols_given_perm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gaussian_writes_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, stdout, _ = run(
            capsys,
            "gen", "--model", "gaussian", "--n", "5", "--d", "2",
            "--snr", "4", "--seed", "1", "-o", str(out),
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in stdout
        doc = json.loads(out.read_text())
        assert doc["n"] == 5 and doc["d"] == 2
        assert len(doc["y"]) == 5
        assert "truth" in doc

    def test_byte_identical_given_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "gen", "--model", "uniform", "--n", "6", "--d", "1",
                "--snr", "4", "--seed", "9", "-o", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("entropy", [0, 9, 2**70 + 1, [2, 1, 3], [5, 0, 19]])
    def test_weight_stream_is_spawn_child_three(self, entropy):
        # the weight vector's stream is child 3 of the seed, draw for draw
        child = np.random.SeedSequence(entropy).spawn(4)[3]
        want = np.random.Generator(np.random.Philox(child))
        got = cli._w_rng(entropy)
        assert np.array_equal(got.bit_generator.random_raw(64), want.bit_generator.random_raw(64))
        assert np.array_equal(got.normal(size=16), want.normal(size=16))

    def test_noiseless_quantized(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        code, _, _ = run(
            capsys,
            "gen", "--model", "noiseless", "--n", "3", "--d", "2",
            "--p", "16", "--seed", "4", "-o", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # the grid exponent is not recorded: the values themselves carry it
        assert set(doc) == {"n", "d", "x", "y", "anchor", "truth"}

    @pytest.mark.parametrize("p, code", [(26, 0), (30, 2)])
    def test_grid_finer_than_a_double_refused(self, tmp_path, capsys, p, code):
        # responses on the 2^-2p grid stop being doubles once 2p outgrows
        # the 53-bit mantissa; gen refuses rather than round them off grid
        out = tmp_path / "q.json"
        got, _, err = run(
            capsys,
            "gen", "--model", "noiseless", "--n", "4", "--d", "2",
            "--p", str(p), "--seed", "0", "-o", str(out),
        )
        assert got == code
        assert ("reduce --p" in err) == (code == 2)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("model", ["gaussian", "uniform"])
    def test_p_refused_for_noisy(self, tmp_path, capsys, model):
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "gen", "--model", model, "--n", "4", "--d", "2", "--snr", "4",
            "--p", "8", "--seed", "0", "-o", str(out),
        )
        assert code == 2
        assert err == "error: --p applies to the noiseless model only\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, err",
        [
            (("--model", "gaussian", "--snr", "0"), "--snr must be > 0"),
            (("--model", "gaussian", "--snr", "nan"), "--snr must be > 0"),
            (("--model", "noiseless", "--snr", "1"), "--snr does not apply to the noiseless model"),
        ],
        ids=["snr-zero", "snr-nan", "noiseless-snr"],
    )
    def test_noise_level_refused(self, tmp_path, capsys, argv, err):
        out = tmp_path / "x.json"
        code, stdout, got = run(
            capsys, "gen", *argv, "--n", "4", "--d", "2", "--seed", "0", "-o", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert got == "error: %s\n" % err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["gaussian", "uniform"])
    def test_snr_inf_writes_noise_free_instance(self, tmp_path, capsys, model):
        out = tmp_path / "x.json"
        code, _, _ = run(
            capsys,
            "gen", "--model", model, "--n", "6", "--d", "2",
            "--snr", "inf", "--seed", "3", "-o", str(out),
        )
        assert code == 0
        rec = read_instance_record(out)
        truth = rec.truth
        assert truth.sigma == 0
        np.testing.assert_array_equal(
            rec.instance.y, responses(rec.instance.x, truth.pi_bar, truth.w_bar)
        )

    def test_missing_n_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--model", "gaussian", "--d", "1", "--snr", "1",
                  "--seed", "0", "-o", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_noise_level_required_for_noisy(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "gen", "--model", "gaussian", "--n", "4", "--d", "1",
            "--seed", "0", "-o", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_unanchored_rejected_for_noisy(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "gen", "--model", "gaussian", "--n", "4", "--d", "1", "--snr", "1",
            "--unanchored", "--seed", "0", "-o", str(tmp_path / "x.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("model", ["gaussian", "noiseless"])
    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_p_below_one_refused(self, tmp_path, capsys, model, p):
        # a noisy model refuses --p whatever its value
        noise = ("--snr", "4") if model == "gaussian" else ()
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "gen", "--model", model, "--n", "3", "--d", "2", *noise,
            "--p", p, "--seed", "0", "-o", str(out),
        )
        assert code == 2
        if model == "gaussian":
            assert err == "error: --p applies to the noiseless model only\n"
        else:
            assert err == "error: --p must be >= 1\n"
        assert not out.exists()


    @pytest.mark.parametrize("model", ["gaussian", "noiseless"])
    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_d_below_one_refused(self, tmp_path, capsys, model, d):
        noise = ("--snr", "1") if model == "gaussian" else ()
        out = tmp_path / "x.json"
        code, stdout, err = run(
            capsys,
            "gen", "--model", model, "--n", "3", "--d", d, *noise,
            "--seed", "0", "-o", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert err == "error: d must be >= 1\n"
        assert not out.exists()


class TestSolve:
    def gen_instance(self, capsys, tmp_path, *extra):
        out = tmp_path / "inst.json"
        code, _, _ = run(
            capsys,
            "gen", "--model", "gaussian", "--n", "5", "--d", "2",
            "--snr", "inf", "--seed", "3", "-o", str(out), *extra,
        )
        assert code == 0
        return out

    def test_fptas_noiseless_near_zero(self, tmp_path, capsys):
        inst = self.gen_instance(capsys, tmp_path)
        code, stdout, _ = run(
            capsys, "solve", "--instance", str(inst), "--solver", "fptas",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["solver"] == "fptas"
        assert doc["cost"] <= 1e-9
        assert sorted(doc["perm"]) == list(range(5))

    def test_brute_matches_fptas_cost(self, tmp_path, capsys):
        inst = self.gen_instance(capsys, tmp_path)
        _, out_b, _ = run(capsys, "solve", "--instance", str(inst), "--solver", "brute")
        doc = json.loads(out_b)
        assert doc["solver"] == "brute"
        assert doc["cost"] <= 1e-9

    def test_brute_cap_exceeded(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        run(
            capsys,
            "gen", "--model", "gaussian", "--n", "9", "--d", "1",
            "--snr", "1", "--seed", "0", "-o", str(out),
        )
        code, _, err = run(capsys, "solve", "--instance", str(out), "--solver", "brute")
        assert code == 2
        assert "error" in err

    def test_lattice_recovers_quantized(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        run(
            capsys,
            "gen", "--model", "noiseless", "--n", "3", "--d", "2",
            "--p", "16", "--seed", "5", "-o", str(out),
        )
        code, stdout, _ = run(
            capsys, "solve", "--instance", str(out), "--solver", "lattice",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["solver"] == "lattice"
        truth = json.loads(out.read_text())["truth"]
        assert doc["perm"] == truth["pi_bar"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lattice_d_one(self, tmp_path, capsys, seed):
        # the margin comes from the grid, so d = 1 needs no option
        out = tmp_path / "d1.json"
        run(
            capsys,
            "gen", "--model", "noiseless", "--n", "2", "--d", "1",
            "--p", "8", "--seed", str(seed), "-o", str(out),
        )
        code, stdout, _ = run(capsys, "solve", "--instance", str(out), "--solver", "lattice")
        assert code == 0
        doc = json.loads(stdout)
        rec = json.loads(out.read_text())
        assert doc["perm"] == rec["truth"]["pi_bar"]
        rows = [rec["anchor"]["x0"], *rec["x"]]
        ys = [rec["anchor"]["y0"], *rec["y"]]
        w = [Fraction(v) for v in doc["w"]]
        for i, j in enumerate(doc["perm"]):
            assert Fraction(ys[i]) == sum(wv * Fraction(xv) for wv, xv in zip(w, rows[j]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lattice_unanchored_n_eight(self, tmp_path, capsys, seed):
        # exact recovery above n = 4: the planted weights and correspondence
        out = tmp_path / "n8.json"
        run(
            capsys,
            "gen", "--model", "noiseless", "--unanchored", "--p", "16",
            "--d", "2", "--n", "8", "--seed", str(seed), "-o", str(out),
        )
        code, stdout, _ = run(capsys, "solve", "--instance", str(out), "--solver", "lattice")
        assert code == 0
        doc = json.loads(stdout)
        truth = json.loads(out.read_text())["truth"]
        assert doc["perm"] == truth["pi_bar"]
        assert [Fraction(v) for v in doc["w"]] == [Fraction(v) for v in truth["w_bar"]]

    def test_fptas_eps_out_of_range(self, tmp_path, capsys):
        inst = self.gen_instance(capsys, tmp_path)
        for eps in ("0", "-0.5", "1"):
            code, _, err = run(
                capsys, "solve", "--instance", str(inst), "--solver", "fptas", "--eps", eps,
            )
            assert code == 2
            assert "eps must lie in (0, 1)" in err

    def test_fptas_budget_below_one(self, tmp_path, capsys):
        inst = self.gen_instance(capsys, tmp_path)
        code, stdout, err = run(
            capsys, "solve", "--instance", str(inst), "--solver", "fptas", "--budget", "0",
        )
        assert code == 2
        assert stdout == ""
        assert "budget must be an integer >= 1" in err

    @pytest.mark.parametrize("solver", ["brute", "lattice"])
    @pytest.mark.parametrize("flag, value", [("--eps", "0.25"), ("--budget", "0")])
    def test_fptas_flags_refused_for_other_solvers(self, tmp_path, capsys, solver, flag, value):
        inst = self.gen_instance(capsys, tmp_path)
        code, stdout, err = run(
            capsys, "solve", "--instance", str(inst), "--solver", solver, flag, value,
        )
        assert code == 2
        assert stdout == ""
        assert err == "error: %s applies to --solver fptas only\n" % flag

    def test_fptas_weight_overflow_refused(self, tmp_path, capsys):
        out = tmp_path / "tiny.json"
        out.write_text(json.dumps({"n": 2, "d": 1, "x": [[0.0], [2.2250738585072014e-308]], "y": [0.0, 4.0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "solve", "--instance", str(out), "--solver", "fptas")
        assert code == 2
        assert stdout == ""
        assert err == "error: the optimal weights overflow float64\n"

    def test_lattice_on_noisy_declared_failure(self, tmp_path, capsys):
        out = tmp_path / "noisy.json"
        run(
            capsys,
            "gen", "--model", "noiseless", "--n", "3", "--d", "2",
            "--seed", "5", "-o", str(out),
        )
        # unquantized floats: the responses are rounded dot products, which
        # no rational weights fit exactly here
        code, stdout, err = run(capsys, "solve", "--instance", str(out), "--solver", "lattice")
        assert code == 3
        doc = json.loads(stdout)
        assert doc["failure"]
        assert err != ""

    def gen_lattice_pair(self, capsys, tmp_path):
        """A gen --p 16 lattice file and a copy with the ``quantization``
        block that files written by earlier versions carry."""
        plain, legacy = tmp_path / "plain.json", tmp_path / "legacy.json"
        run(
            capsys,
            "gen", "--model", "noiseless", "--unanchored", "--n", "4", "--d", "2",
            "--p", "16", "--seed", "3", "-o", str(plain),
        )
        doc = json.loads(plain.read_text())
        doc["quantization"] = {"p": 16}
        legacy.write_text(json.dumps(doc))
        return plain, legacy

    def test_lattice_needs_no_quantization_block(self, tmp_path, capsys):
        # the file's floats are the exact grid values, and the margin comes
        # from their denominators; an older file's block is ignored
        plain, legacy = self.gen_lattice_pair(capsys, tmp_path)
        want = run(capsys, "solve", "--instance", str(plain), "--solver", "lattice")
        got = run(capsys, "solve", "--instance", str(legacy), "--solver", "lattice")
        assert want[0] == 0
        assert got == want

    def test_lattice_off_grid_response_declared_failure(self, tmp_path, capsys):
        plain, _ = self.gen_lattice_pair(capsys, tmp_path)
        doc = json.loads(plain.read_text())
        moved = doc["y"][0] + 2.0**-40
        assert Fraction(moved) - Fraction(doc["y"][0]) == Fraction(1, 2**40)
        doc["y"][0] = moved
        plain.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "solve", "--instance", str(plain), "--solver", "lattice")
        assert code == 3
        assert json.loads(stdout)["failure"]

    @pytest.mark.parametrize(
        "x0, y0, x, y, err",
        [
            # collinear covariates, refused before any anchor guess
            ([1.0, 2.0], 1.0, [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [1.0, 2.0, 3.0],
             "error: covariates do not have full column rank\n"),
            ([1.0, 0.0], 0.0, [[0.0, 1.0], [1.0, 1.0]], [0.0, 0.0],
             "error: all responses zero\n"),
        ],
        ids=["rank-deficient", "all-zero"],
    )
    def test_lattice_instance_refusals(self, tmp_path, capsys, x0, y0, x, y, err):
        out = tmp_path / "refused.json"
        out.write_text(json.dumps(
            {"n": len(x), "d": len(x0), "x": x, "y": y, "anchor": {"x0": x0, "y0": y0}}
        ))
        code, stdout, got = run(capsys, "solve", "--instance", str(out), "--solver", "lattice")
        assert code == 2
        assert stdout == ""
        assert got == err

    def test_lattice_rejects_unanchored(self, tmp_path, capsys):
        inst = self.gen_instance(capsys, tmp_path)
        code, stdout, err = run(capsys, "solve", "--instance", str(inst), "--solver", "lattice")
        assert code == 2
        assert stdout == ""
        assert err == "error: solver lattice expects an anchored instance\n"

    def test_fptas_rejects_anchored(self, tmp_path, capsys):
        out = tmp_path / "anch.json"
        run(
            capsys,
            "gen", "--model", "noiseless", "--n", "3", "--d", "2",
            "--p", "16", "--seed", "5", "-o", str(out),
        )
        code, _, _ = run(capsys, "solve", "--instance", str(out), "--solver", "fptas")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "solve", "--instance", "/nonexistent.json", "--solver", "brute",
        )
        assert code == 2

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "solve", "--instance", str(bad), "--solver", "brute")
        assert code == 2

    @pytest.mark.parametrize("field", ["x", "y", "x0", "y0", "w_bar", "sigma"])
    def test_integer_beyond_double_range_refused(self, tmp_path, capsys, field):
        # json reads 10**400 as an int that no double holds; float() of it
        # raises OverflowError, which the reader turns into a schema error
        big = 10**400
        doc = {
            "n": 1, "d": 1, "x": [[1.0]], "y": [1.0],
            "anchor": {"x0": [1.0], "y0": 1.0},
            "truth": {"w_bar": [1.0], "pi_bar": [0, 1], "sigma": 0.0},
        }
        if field in ("x0", "y0"):
            doc["anchor"][field] = [big] if field == "x0" else big
        elif field in ("w_bar", "sigma"):
            doc["truth"][field] = [big] if field == "w_bar" else big
        else:
            doc[field] = [[big]] if field == "x" else [big]
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(errors.SchemaError, match="must be finite"):
            read_instance_record(bad)
        code, stdout, err = run(capsys, "solve", "--instance", str(bad), "--solver", "lattice")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and "must be finite" in err


class TestSweep:
    def test_fptas_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep-snr", "--model", "gaussian", "--n", "4", "--d", "1",
            "--snr-grid", "1,4", "--trials", "3", "--solver", "fptas",
            "--seed", "2", "-o", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert [float(r["snr"]) for r in rows] == [1.0, 4.0]
        for r in rows:
            assert 0.0 <= float(r["success_rate"]) <= 1.0
            assert float(r["mean_err"]) >= 0.0

    def test_lattice_sweep(self, tmp_path, capsys):
        out = tmp_path / "lat.csv"
        code, _, _ = run(
            capsys,
            "sweep-snr", "--model", "noiseless", "--n", "3", "--d", "2",
            "--trials", "3", "--solver", "lattice", "--seed", "2",
            "-o", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert rows[0]["snr"] == "inf"
        assert float(rows[0]["success_rate"]) == 1.0

    def test_lattice_sweep_d_one(self, tmp_path, capsys):
        out = tmp_path / "lat1.csv"
        code, _, _ = run(
            capsys,
            "sweep-snr", "--model", "noiseless", "--n", "3", "--d", "1",
            "--trials", "3", "--solver", "lattice", "--seed", "2",
            "-o", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert float(rows[0]["success_rate"]) == 1.0

    def test_serial_parallel_identical(self, tmp_path, capsys):
        paths = []
        for jobs in ("1", "2"):
            paths.append(tmp_path / ("jobs%s.csv" % jobs))
            code, _, _ = run(
                capsys,
                "sweep-snr", "--model", "gaussian", "--n", "4", "--d", "1",
                "--snr-grid", "1,2", "--trials", "3", "--solver", "fptas",
                "--seed", "7", "--jobs", jobs, "-o", str(paths[-1]),
            )
            assert code == 0
        wt = SWEEP_COLUMNS.index("wall_time_s")

        def drop(path):
            return [[v for i, v in enumerate(r) if i != wt] for r in csv.reader(path.open())]

        serial, parallel = map(drop, paths)
        assert len(serial) == 3
        assert serial == parallel

    @pytest.mark.parametrize(
        "argv, pools",
        [
            # two cells: two workers, however many jobs were asked for
            (("--model", "gaussian", "--solver", "fptas", "--snr-grid", "1,2"), [2]),
            # a noiseless sweep has one cell, which runs in-process
            (("--model", "noiseless", "--solver", "lattice"), []),
        ],
    )
    def test_workers_capped_by_cells(self, tmp_path, capsys, monkeypatch, argv, pools):
        started = []

        class FakePool:
            # records the worker count and runs the cells in-process, so no
            # process is ever started
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        code, _, _ = run(
            capsys,
            "sweep-snr", *argv, "--n", "3", "--d", "1", "--trials", "1",
            "--seed", "0", "--jobs", "64", "-o", str(tmp_path / "x.csv"),
        )
        assert code == 0
        assert started == pools

    @pytest.mark.parametrize("model, solver", [("gaussian", "brute"), ("uniform", "fptas")])
    def test_brute_sweep_is_brute_force(self, tmp_path, capsys, model, solver):
        # every column but wall_time_s, recomputed from the solver on the
        # same per-trial entropy [seed, snr_index, trial_index]
        gen = {"gaussian": gen_gaussian_noisy, "uniform": gen_uniform_noisy}[model]
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep-snr", "--model", model, "--n", "4", "--d", "2",
            "--snr-grid", "0.5,2", "--trials", "3", "--solver", solver,
            "--seed", "2", "-o", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        for i, (snr, row) in enumerate(zip((0.5, 2.0), rows)):
            errs, base_errs, successes = [], [], 0
            for trial in range(3):
                ent = [2, i, trial]
                w_bar = random_unit_vector(2, cli._w_rng(ent))
                inst, truth = gen(w_bar, 4, 1.0 / math.sqrt(snr), ent)
                sol = brute_force(inst) if solver == "brute" else fptas_solve(inst, 0.5)
                errs.append(float(np.linalg.norm(sol.w - w_bar)))
                successes += sol.perm.map == truth.pi_bar.map
                base = ols_given_perm(inst.x, inst.y, truth.pi_bar)
                base_errs.append(float(np.linalg.norm(base.w - w_bar)))
            del row["wall_time_s"]
            assert {k: float(v) for k, v in row.items()} == {
                "snr": snr, "n": 4, "d": 2,
                "mean_err": float(np.mean(errs)), "std_err": float(np.std(errs)),
                "success_rate": successes / 3, "baseline_mean_err": float(np.mean(base_errs)),
            }

    def test_brute_cap_refused_with_cells(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "sweep-snr", "--model", "gaussian", "--n", "9", "--d", "1",
            "--snr-grid", "1", "--trials", "2", "--solver", "brute",
            "--seed", "1", "-o", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--model", "gaussian", "--solver", "brute", "--snr-grid", "1"),
            ("--model", "noiseless", "--solver", "lattice"),
        ],
    )
    @pytest.mark.parametrize("flag, value", [("--eps", "9"), ("--budget", "0")])
    def test_fptas_flags_refused_for_other_solvers(self, tmp_path, capsys, argv, flag, value):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys,
            "sweep-snr", *argv, "--n", "3", "--d", "1", "--trials", "1",
            "--seed", "0", flag, value, "-o", str(out),
        )
        assert code == 2
        assert err == "error: %s applies to --solver fptas only\n" % flag
        assert not out.exists()

    def test_lattice_requires_noiseless(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "sweep-snr", "--model", "gaussian", "--n", "3", "--d", "2",
            "--snr-grid", "1", "--trials", "2", "--solver", "lattice",
            "--seed", "1", "-o", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_bad_grid_string(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "sweep-snr", "--model", "gaussian", "--n", "4", "--d", "1",
            "--snr-grid", "1,abc", "--trials", "2", "--solver", "fptas",
            "--seed", "1", "-o", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_empty_grid_string(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys,
            "sweep-snr", "--model", "gaussian", "--n", "4", "--d", "1",
            "--snr-grid", ",", "--trials", "2", "--solver", "fptas",
            "--seed", "1", "-o", str(out),
        )
        assert code == 2
        assert err == "error: empty grid ','\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, err",
        [
            (("--n", "0"), "n, d, trials and jobs must be >= 1"),
            (("--d", "0"), "n, d, trials and jobs must be >= 1"),
            (("--trials", "0"), "n, d, trials and jobs must be >= 1"),
            (("--jobs", "0"), "n, d, trials and jobs must be >= 1"),
            (("--snr-grid", "1,0"), "snr grid values must be > 0"),
            (("--snr-grid", "-2"), "snr grid values must be > 0"),
        ],
        ids=["n", "d", "trials", "jobs", "snr-zero", "snr-negative"],
    )
    def test_run_sweep_refusals(self, tmp_path, capsys, change, err):
        # argparse keeps the last value of a repeated option
        out = tmp_path / "x.csv"
        code, _, got = run(
            capsys,
            "sweep-snr", "--model", "gaussian", "--n", "3", "--d", "1",
            "--snr-grid", "1", "--trials", "1", "--solver", "fptas",
            "--seed", "0", *change, "-o", str(out),
        )
        assert code == 2
        assert got == "error: %s\n" % err
        assert not out.exists()

    def test_unknown_model_and_solver_usage_error(self, tmp_path, capsys):
        # argparse's choices refuse them before any sweep code runs
        for model, solver in (("poisson", "fptas"), ("gaussian", "ols")):
            with pytest.raises(SystemExit) as exc:
                main([
                    "sweep-snr", "--model", model, "--n", "3", "--d", "1",
                    "--solver", solver, "--seed", "0", "-o", str(tmp_path / "x.csv"),
                ])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestCheckOrderStats:
    def test_report_values(self):
        rep = order_stats_report(10, 20000, 0)
        assert rep["pair_sum_sq"]["exact"] == pytest.approx(5.0 / 11.0)
        assert abs(rep["pair_sum_sq"]["rel_err"]) < 0.05

    def test_odd_n_exact_value(self):
        rep = order_stats_report(3, 20000, 1)
        assert rep["pair_sum_sq"]["exact"] == pytest.approx(2.0 / 5.0)

    def test_rank_means(self):
        # E[U_(r)] - 1/2 = r/(n+1) - 1/2; n=2, r=1 gives -1/6
        rep = order_stats_report(2, 200000, 2)
        first = rep["rank_means"][0]
        assert first["r"] == 1
        assert first["empirical"] == pytest.approx(-1.0 / 6.0, abs=0.005)
        assert first["exact"] == pytest.approx(-1.0 / 6.0)

    def test_cli_json_and_tol(self, capsys):
        # the n = 10 report at 100000 trials, seed 0, within the 1 % bound
        code, stdout, err = run(capsys, "check-order-stats")
        assert code == 0
        assert err == ""
        assert json.loads(stdout) == order_stats_report(10, 100000, 0)

    @pytest.mark.parametrize(
        "rel_err, code, err",
        [
            (0.011, 3, "failure: pair statistic off by 0.011 (tol 0.01)\n"),
            (0.009, 0, ""),
        ],
        ids=["over", "under"],
    )
    def test_cli_failure_rule(self, capsys, monkeypatch, rel_err, code, err):
        rep = {"n": 10, "pair_sum_sq": {"rel_err": rel_err}}
        monkeypatch.setattr(cli, "order_stats_report", lambda *args: rep)
        got, stdout, got_err = run(capsys, "check-order-stats")
        assert got == code
        assert got_err == err
        assert json.loads(stdout) == rep

    def test_n_validation(self):
        with pytest.raises(ValueError):
            order_stats_report(1, 100, 0)


class TestCheckW2:
    @pytest.mark.parametrize(
        "per_n, code, err",
        [
            ([0.5, 0.4, 0.45], 3, "failure: per-n mean increased along the grid\n"),
            ([0.5, 0.3, 0.2], 3, "failure: shrink factor 2.500 below 4\n"),
            ([0.5, 0.3, 0.1], 0, ""),
        ],
        ids=["rise", "shrink", "pass"],
    )
    def test_cli_failure_rules(self, tmp_path, capsys, monkeypatch, per_n, code, err):
        # canned rows on the 100 -> 10000 grid, so each rule is checked alone
        grid = (100, 1000, 10000)
        rows = [{"n": n, "mean_sq": v * n, "mean_sq_per_n": v} for n, v in zip(grid, per_n)]
        monkeypatch.setattr(cli, "w2_report", lambda *args: rows)
        got, _, got_err = run(capsys, "check-w2", "-o", str(tmp_path / "w2.csv"))
        assert got == code
        assert got_err == err

    def test_cli_writes_csv(self, tmp_path, capsys):
        # the d = 20, 50-trial, seed-0 report on n = 100, 1000, 10000
        out = tmp_path / "w2.csv"
        code, stdout, err = run(capsys, "check-w2", "-o", str(out))
        assert code == 0
        assert err == ""
        want = w2_report()
        rows = list(csv.DictReader(out.open()))
        assert [{k: float(v) for k, v in r.items()} for r in rows] == want
        ratio = want[0]["mean_sq_per_n"] / want[-1]["mean_sq_per_n"]
        assert stdout == "wrote %s (3 rows)\nshrink factor n=100 -> n=10000: %.3f\n" % (out, ratio)


class TestReduce:
    def test_round_trip_yes(self, tmp_path, capsys):
        out = tmp_path / "pls.json"
        code, stdout, _ = run(
            capsys, "reduce", "--z", "4,4,7,7,4,4", "-o", str(out),
        )
        assert code == 0
        assert "feasible" in stdout
        code2, out2, _ = run(
            capsys, "solve", "--instance", str(out), "--solver", "brute",
        )
        assert code2 == 0
        assert json.loads(out2)["cost"] <= 1e-18

    def test_round_trip_no(self, tmp_path, capsys):
        out = tmp_path / "pls_no.json"
        code, _, _ = run(
            capsys, "reduce", "--z", "4,4,4,6,6,6", "-o", str(out),
        )
        assert code == 0
        code2, out2, _ = run(
            capsys, "solve", "--instance", str(out), "--solver", "brute",
        )
        assert code2 == 0
        assert json.loads(out2)["cost"] > 1e-6

    def test_invalid_bounds(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "reduce", "--z", "3,5,7", "-o", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "c/4" in err

    def test_malformed_z(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "reduce", "--z", "4,x,6", "-o", str(tmp_path / "x.json"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "z, bad",
        [
            # a no-instance; rounded to doubles it would be (2^60,) * 6, a yes
            ((2**60,) * 5 + (2**60 + 2,), 2**60 + 2),
            # beyond the largest double
            ((10**400,) * 3, 10**400),
        ],
        ids=["rounded", "overflow"],
    )
    def test_value_without_double_refused(self, tmp_path, capsys, z, bad):
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "reduce", "--z", ",".join(map(str, z)), "-o", str(out))
        assert code == 2
        assert "value %d has no exact double" % bad in err
        assert not out.exists()


class TestTopLevel:
    def test_no_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_built_once(self, monkeypatch, tmp_path, capsys):
        built = []
        real = cli.build_parser

        def counted():
            built.append(None)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for seed in ("1", "2"):
            assert run(capsys, "reduce", "--z", "4,4,7,7,4,4", "-o", str(tmp_path / seed))[0] == 0
        assert len(built) == 1

    def test_reused_parser_keeps_no_state(self, tmp_path, capsys):
        # main parses every call with the one parser it built, so each call
        # must read as if the parser were new: a flag given once does not
        # stay set, and a refused call leaves nothing behind
        inst = tmp_path / "inst.json"
        gen = ("gen", "--model", "gaussian", "--n", "5", "--d", "2", "--snr", "inf", "--seed", "3")
        assert run(capsys, *gen, "-o", str(inst))[0] == 0
        solve = ("solve", "--instance", str(inst), "--solver", "fptas")
        code, stdout, _ = run(capsys, *solve, "--eps", "0.25")
        assert code == 0 and json.loads(stdout)["eps"] == 0.25
        code, fresh, _ = run(capsys, *solve)
        assert code == 0 and json.loads(fresh)["eps"] == 0.5
        with pytest.raises(SystemExit) as exc:
            main([*solve, "--frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *solve) == (0, fresh, "")
        # a value another subcommand took is not read back either
        assert run(capsys, *gen, "--unanchored", "-o", str(tmp_path / "x.json"))[0] == 2
        capsys.readouterr()
        assert run(capsys, *gen, "-o", str(tmp_path / "y.json"))[0] == 0
        assert (tmp_path / "y.json").read_bytes() == inst.read_bytes()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "exc, code",
        [
            (errors.ParseError, 2),
            (errors.SchemaError, 2),
            (errors.CapExceededError, 2),
            (errors.BudgetExceededError, 2),
            (errors.RankDeficiencyError, 2),
            (errors.DegenerateInstanceError, 2),
            (errors.InternalInvariantError, 4),
        ],
    )
    def test_package_error_exit_code(self, monkeypatch, tmp_path, capsys, exc, code):
        def fail(args):
            raise exc("planted failure")

        monkeypatch.setattr(cli, "cmd_reduce", fail)
        got, _, err = run(capsys, "reduce", "--z", "1,1,2", "-o", str(tmp_path / "x.json"))
        assert got == code
        assert "planted failure" in err
