"""The package's public surface: the README examples run as written, and
``shuffle_regress.__all__`` holds exactly the documented names."""
import re
from pathlib import Path

import shuffle_regress

README = Path(__file__).resolve().parent.parent / "README.md"

# The functions the README names, the types they take or return, and the
# error classes.  A name joins only together with its README entry.
SURFACE = {
    "AnchoredInstance",
    "BudgetExceededError",
    "CapExceededError",
    "DegenerateInstanceError",
    "GroundTruth",
    "Instance",
    "InternalInvariantError",
    "LatticeBasis",
    "MatchResult",
    "NumericalBarrierError",
    "ParseError",
    "Permutation",
    "PlsInstance",
    "QuantizationConfig",
    "QuantizedAnchoredInstance",
    "RankDeficiencyError",
    "RecoveryResult",
    "SamplingMatrix",
    "SchemaError",
    "Solution",
    "ThreePartitionInstance",
    "brute_force",
    "check_3partition_brute",
    "fptas_solve",
    "gen_gaussian_noisy",
    "gen_noiseless_anchored",
    "gen_uniform_noisy",
    "lll_reduce",
    "perm_match_brute",
    "pls_feasible_brute",
    "quantize_noiseless",
    "recover",
    "reduce_3partition",
    "row_sample",
    "sort_match",
    "subset_sum_brute",
    "wasserstein2_sq",
}


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_examples_run():
    blocks = _python_blocks()
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_all_names_resolve():
    for name in shuffle_regress.__all__:
        assert getattr(shuffle_regress, name) is not None


def test_all_is_the_documented_surface():
    assert len(shuffle_regress.__all__) == len(set(shuffle_regress.__all__))
    assert set(shuffle_regress.__all__) == SURFACE


def test_readme_names_every_function():
    text = README.read_text()
    for name in SURFACE:
        if name[0].islower():
            assert re.search(r"\b%s\b" % name, text), name
