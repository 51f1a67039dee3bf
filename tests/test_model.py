import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffle_regress import (
    AnchoredInstance,
    GroundTruth,
    Instance,
    ParseError,
    Permutation,
    SchemaError,
    gen_gaussian_noisy,
    gen_noiseless_anchored,
    gen_uniform_noisy,
    quantize_noiseless,
)
from shuffle_regress.model import (
    quantize_value,
    random_unit_vector,
    read_instance_record,
    responses,
    write_instance,
)


class TestPermutation:
    def test_identity_and_call(self):
        p = Permutation(range(4))
        assert p.map == (0, 1, 2, 3)
        assert p(2) == 2
        assert len(p) == 4

    @pytest.mark.parametrize("bad", [(0, 0), (1, 2), (0, 2, 2), (-1, 0)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty permutation"):
            Permutation(())


class TestInstanceValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_ground_truth_weights_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="w_bar must be finite"):
            GroundTruth(w_bar=[bad, 1.0], pi_bar=Permutation((0, 1)), sigma=0.0)

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    def test_ground_truth_sigma_refused(self, bad):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            GroundTruth(w_bar=[1.0], pi_bar=Permutation((0,)), sigma=bad)

    @pytest.mark.parametrize(
        "x, y",
        [(np.zeros(3), np.zeros(3)), (np.zeros((3, 1)), np.zeros((3, 1)))],
        ids=["1-d x", "2-d y"],
    )
    def test_wrong_ndim(self, x, y):
        with pytest.raises(ValueError, match="x must be 2-d and y 1-d"):
            Instance(x=x, y=y)

    def test_no_rows_refused(self):
        with pytest.raises(ValueError, match="empty instance"):
            Instance(x=np.zeros((0, 2)), y=np.zeros(0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Instance(x=np.zeros((3, 2)), y=np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Instance(x=np.array([[np.nan]]), y=np.array([1.0]))

    def test_readonly(self):
        inst = Instance(x=np.zeros((2, 1)), y=np.zeros(2))
        with pytest.raises(ValueError):
            inst.x[0, 0] = 1.0

    @pytest.mark.parametrize(
        "x0, x, y",
        [
            ((), (), ()),  # no measurements
            ((1, 0), ((1, 0), (1,)), (1, 2)),  # ragged row
            ((1,), ((1, 0), (0, 1)), (1, 2)),  # x0 shorter than the rows
            ((1, 0), ((1, 0), (0, 1)), (1,)),  # fewer responses than rows
        ],
    )
    def test_quantized_shapes_refused(self, x0, x, y):
        with pytest.raises(ValueError):
            AnchoredInstance(x0=x0, y0=1, x=x, y=y)

    def test_anchored_values_kept_exactly(self):
        # every value is the rational it denotes: a double is never rounded
        # to a short decimal, and nothing is rounded to a double
        inst = AnchoredInstance(
            x0=(Fraction(1, 3), 0.1),
            y0=np.float64(0.1),
            x=np.array([[2, -1], [0.5, 3]]),
            y=(np.int64(7), np.float32(0.1)),
        )
        assert inst.x0 == (Fraction(1, 3), Fraction(3602879701896397, 2**55))
        assert inst.y0 == Fraction(3602879701896397, 2**55)
        assert inst.x == ((2, -1), (Fraction(1, 2), 3))
        assert inst.y == (7, Fraction(13421773, 2**27))
        values = [*inst.x0, inst.y0, *(v for row in inst.x for v in row), *inst.y]
        assert all(type(v) is Fraction for v in values)
        assert (inst.n, inst.d) == (2, 2)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(np.inf)])
    @pytest.mark.parametrize("field", ["x0", "y0", "x", "y"])
    def test_anchored_nonfinite_is_value_error(self, field, bad):
        kwargs = {"x0": (1.0,), "y0": 1.0, "x": ((2.0,),), "y": (2.0,)}
        kwargs[field] = {"x0": (bad,), "y0": bad, "x": ((bad,),), "y": (bad,)}[field]
        with pytest.raises(ValueError, match="non-finite"):
            AnchoredInstance(**kwargs)


class TestGaussianGenerator:
    def test_zero_weight_zero_noise_gives_zero_y(self):
        inst, _ = gen_gaussian_noisy(np.array([0.0]), 2, 0.0, 42)
        assert np.array_equal(inst.y, np.zeros(2))

    def test_noiseless_multiset_identity(self):
        inst, truth = gen_gaussian_noisy(np.array([1.0, 1.0]), 5, 0.0, 7)
        assert sorted(inst.y) == sorted(inst.x @ np.array([1.0, 1.0]))

    def test_noiseless_identity_bit_exact(self):
        inst, truth = gen_gaussian_noisy(np.array([0.3, -1.7]), 8, 0.0, 11)
        expected = responses(inst.x, truth.pi_bar, truth.w_bar)
        assert np.array_equal(inst.y, expected)

    def test_variance_large_n(self):
        inst, _ = gen_gaussian_noisy(np.array([1.0]), 10**4, 0.0, 3)
        assert abs(inst.y.var() - 1.0) < 0.05

    def test_pi_bar_bijection(self):
        _, truth = gen_gaussian_noisy(np.array([1.0]), 9, 0.5, 1)
        assert sorted(truth.pi_bar.map) == list(range(9))

    def test_seed_determinism(self):
        a, _ = gen_gaussian_noisy(np.array([1.0, 2.0]), 6, 0.3, 5)
        b, _ = gen_gaussian_noisy(np.array([1.0, 2.0]), 6, 0.3, 5)
        c, _ = gen_gaussian_noisy(np.array([1.0, 2.0]), 6, 0.3, 6)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_stream_separation(self):
        # noise draws must not perturb the covariate or permutation streams
        a, ta = gen_gaussian_noisy(np.array([1.0]), 6, 0.0, 13)
        b, tb = gen_gaussian_noisy(np.array([1.0]), 6, 2.0, 13)
        assert np.array_equal(a.x, b.x)
        assert ta.pi_bar.map == tb.pi_bar.map

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gen_gaussian_noisy(np.array([1.0]), 3, -0.1, 0)

    def test_n_below_one_refused(self):
        with pytest.raises(ValueError, match="n and d must be >= 1"):
            gen_gaussian_noisy(np.array([1.0]), 0, 0.1, 0)


class TestUniformGenerator:
    def test_support_bound(self):
        inst, _ = gen_uniform_noisy(np.array([1.0]), 10**5, 0.0, 2)
        assert np.abs(inst.y).max() <= 0.5

    def test_variance(self):
        inst, _ = gen_uniform_noisy(np.array([1.0]), 10**5, 0.0, 2)
        assert abs(inst.y.var() - 1.0 / 12.0) < 0.05 / 12.0

    def test_pure_noise_is_standard_normal(self):
        inst, _ = gen_uniform_noisy(np.array([0.0]), 10**4, 1.0, 9)
        s = np.sort(inst.y)
        n = len(s)
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(s / math.sqrt(2.0)))
        ks = np.max(np.abs(cdf - (np.arange(1, n + 1)) / n))
        assert ks < 0.02


class TestNoiselessAnchored:
    def test_scalar_case_forced_identity(self):
        inst, truth = gen_noiseless_anchored(np.array([2.0]), 1, 0)
        x = np.array(inst.x, dtype=float)
        assert truth.pi_bar.map == (0, 1)
        assert inst.y0 == 2.0 * inst.x0[0]
        assert inst.y[0] == 2.0 * x[0, 0]

    def test_anchored_fixes_zero(self):
        for seed in range(5):
            _, truth = gen_noiseless_anchored(np.array([1.0, 1.0]), 4, seed)
            assert truth.pi_bar(0) == 0

    def test_unanchored_moves_anchor_sometimes(self):
        hits = [
            gen_noiseless_anchored(np.array([1.0, 1.0]), 4, s, anchored=False)[1].pi_bar(0)
            for s in range(10)
        ]
        assert any(v != 0 for v in hits)

    def test_identity_bit_exact_combined(self):
        inst, truth = gen_noiseless_anchored(np.array([0.7, -0.2]), 3, 21, anchored=False)
        xs = np.array([inst.x0, *inst.x], dtype=float)
        ys = np.array([inst.y0, *inst.y], dtype=float)
        assert np.array_equal(ys, responses(xs, truth.pi_bar, truth.w_bar))

    def test_true_perm_recovers_w(self):
        inst, truth = gen_noiseless_anchored(np.array([1.3, -0.4]), 3, 17)
        xs = np.array([inst.x0, *inst.x], dtype=float)
        ys = np.array([inst.y0, *inst.y], dtype=float)
        w = np.linalg.lstsq(xs[list(truth.pi_bar.map)], ys, rcond=None)[0]
        assert np.allclose(w, truth.w_bar, atol=1e-10)

    def test_zero_weights_zero_responses(self):
        inst, _ = gen_noiseless_anchored(np.array([0.0, 0.0]), 3, 2)
        assert inst.y0 == 0.0 and np.array_equal(inst.y, np.zeros(3))

    def test_n_below_d_refused(self):
        with pytest.raises(ValueError):
            gen_noiseless_anchored(np.array([1.0, 1.0, 1.0]), 2, 0)

    def test_d_below_one_refused(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            gen_noiseless_anchored(np.array([]), 3, 0)


class TestRandomUnitVector:
    def test_unit_norm(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        for d in (1, 2, 7):
            v = random_unit_vector(d, rng)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_refused(self, d):
        # an empty draw has norm 0, so d = 0 would redraw forever
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        with pytest.raises(ValueError, match="d must be >= 1"):
            random_unit_vector(d, rng)


class TestQuantize:
    def test_nearest_multiple(self):
        assert quantize_value(0.3, 2) == Fraction(1, 4)

    def test_tie_to_even(self):
        assert quantize_value(0.375, 2) == Fraction(1, 2)

    def test_exact_double(self):
        assert quantize_value(0.5, 53) == Fraction(1, 2)

    def test_instance_quantization(self):
        inst = Instance(x=np.array([[0.3], [0.8]]), y=np.array([0.1, -0.6]))
        qx = tuple(tuple(quantize_value(v, 2) for v in row) for row in inst.x)
        qy = tuple(quantize_value(v, 2) for v in inst.y)
        assert qx == ((Fraction(1, 4),), (Fraction(3, 4),))
        assert qy == (Fraction(0), Fraction(-1, 2))

    @given(
        v=st.floats(min_value=-100, max_value=100, allow_nan=False),
        p=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, v, p):
        q1 = quantize_value(v, p)
        assert quantize_value(q1, p) == q1
        assert q1.denominator & (q1.denominator - 1) == 0  # power of two

    def test_quantize_noiseless_keeps_identity(self):
        inst, truth = gen_noiseless_anchored(np.array([0.9, -0.3]), 3, 5)
        q, w_q = quantize_noiseless(inst, truth, 8)
        rows = [q.x0, *q.x]
        pi = truth.pi_bar
        ys = [q.y0, *q.y]
        for i in range(4):
            assert ys[i] == sum(a * b for a, b in zip(w_q, rows[pi(i)]))

    def test_quantize_noiseless_requires_sigma_zero(self):
        inst, truth = gen_noiseless_anchored(np.array([1.0]), 2, 1)
        noisy = GroundTruth(w_bar=truth.w_bar, pi_bar=truth.pi_bar, sigma=0.5)
        with pytest.raises(ValueError):
            quantize_noiseless(inst, noisy, 4)

    def test_config_validation(self):
        inst, truth = gen_noiseless_anchored(np.array([1.0]), 2, 1)
        for p in (0, True):
            with pytest.raises(ValueError):
                quantize_noiseless(inst, truth, p)


class TestSerialization:
    def test_round_trip_plain(self, tmp_path):
        inst, truth = gen_gaussian_noisy(np.array([1.0, -2.0]), 3, 0.2, 8)
        f = tmp_path / "inst.json"
        write_instance(f, inst, truth=truth)
        rec = read_instance_record(f)
        assert isinstance(rec.instance, Instance)
        assert np.array_equal(rec.instance.x, inst.x)
        assert np.array_equal(rec.instance.y, inst.y)
        assert rec.truth.pi_bar.map == truth.pi_bar.map
        assert np.array_equal(rec.truth.w_bar, truth.w_bar)
        assert rec.truth.sigma == truth.sigma

    def test_round_trip_anchored(self, tmp_path):
        inst, truth = gen_noiseless_anchored(np.array([1.0, -2.0]), 3, 8)
        f = tmp_path / "anch.json"
        write_instance(f, inst, truth=truth)
        back = read_instance_record(f).instance
        assert isinstance(back, AnchoredInstance)
        assert back.y0 == inst.y0
        assert np.array_equal(back.x0, inst.x0)
        assert np.array_equal(back.x, inst.x)

    def test_round_trip_quantized(self, tmp_path):
        # grid values are doubles, so the file gives back the exact instance
        inst, truth = gen_noiseless_anchored(np.array([0.6, -0.8]), 4, 3, anchored=False)
        q, w_q = quantize_noiseless(inst, truth, 16)
        f = tmp_path / "q.json"
        write_instance(f, q, truth=GroundTruth(w_bar=w_q, pi_bar=truth.pi_bar, sigma=0.0))
        rec = read_instance_record(f)
        for field in dataclasses.fields(AnchoredInstance):
            assert getattr(rec.instance, field.name) == getattr(q, field.name), field.name
        assert tuple(rec.truth.w_bar) == w_q
        assert rec.truth.pi_bar == truth.pi_bar

    @pytest.mark.parametrize(
        "field, value",
        [("y0", Fraction(1, 3)), ("y", 1 + Fraction(1, 2**60)), ("x", 10**400)],
    )
    def test_write_refuses_value_no_double_holds(self, tmp_path, field, value):
        kwargs = {"x0": (1,), "y0": 1, "x": ((1,),), "y": (1,)}
        kwargs[field] = {"y0": value, "y": (value,), "x": ((value,),)}[field]
        f = tmp_path / "inexact.json"
        with pytest.raises(ValueError, match="not exactly representable as a double"):
            write_instance(f, AnchoredInstance(**kwargs))
        assert not f.exists()

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        # a non-finite weight slipped past GroundTruth's own check: json
        # refuses it, and the file is neither created nor truncated
        inst, truth = gen_gaussian_noisy(np.array([1.0, -2.0]), 3, 0.2, 8)
        object.__setattr__(truth, "w_bar", np.array([math.nan, 1.0]))
        fresh = tmp_path / "fresh.json"
        with pytest.raises(ValueError):
            write_instance(fresh, inst, truth=truth)
        assert not fresh.exists()
        kept = tmp_path / "kept.json"
        kept.write_text("old\n")
        with pytest.raises(ValueError):
            write_instance(kept, inst, truth=truth)
        assert kept.read_text() == "old\n"

    def test_y_length_mismatch_schema_error(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"n": 2, "d": 1, "x": [[1.0], [2.0]], "y": [1.0]}')
        with pytest.raises(SchemaError):
            read_instance_record(f)

    def test_nan_token_parse_error(self, tmp_path):
        f = tmp_path / "nan.json"
        f.write_text('{"n": 1, "d": 1, "x": [[NaN]], "y": [0.0]}')
        with pytest.raises(ParseError):
            read_instance_record(f)

    def test_invalid_json_parse_error(self, tmp_path):
        f = tmp_path / "trunc.json"
        f.write_text('{"n": 1,')
        with pytest.raises(ParseError):
            read_instance_record(f)

    def test_bad_pi_bar_schema_error(self, tmp_path):
        f = tmp_path / "badpi.json"
        doc = {
            "n": 2,
            "d": 1,
            "x": [[1.0], [2.0]],
            "y": [1.0, 2.0],
            "truth": {"w_bar": [1.0], "pi_bar": [0, 0], "sigma": 0.0},
        }
        f.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            read_instance_record(f)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "d": 1, "x": [[1.0]], "y": [2.0]},
            {"n": 1, "d": True, "x": [[1.0]], "y": [2.0]},
            {
                "n": 2, "d": 1, "x": [[1.0], [2.0]], "y": [4.0, 2.0],
                "truth": {"w_bar": [2.0], "pi_bar": [True, False], "sigma": 0.0},
            },
        ],
        ids=["n", "d", "pi_bar"],
    )
    def test_boolean_integer_field_schema_error(self, tmp_path, doc):
        # JSON true/false would pass an isinstance(v, int) check as 1/0
        f = tmp_path / "bool.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            read_instance_record(f)

    def test_missing_field_schema_error(self, tmp_path):
        f = tmp_path / "missing.json"
        f.write_text('{"n": 1, "d": 1, "x": [[1.0]]}')
        with pytest.raises(SchemaError):
            read_instance_record(f)

    def test_quantized_instance_views(self):
        q = AnchoredInstance(
            x0=(Fraction(1, 2),),
            y0=Fraction(1),
            x=((Fraction(1, 4),),),
            y=(Fraction(1, 2),),
        )
        assert q.n == 1 and q.d == 1
