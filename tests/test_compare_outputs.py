"""The output comparison tool of tools/ sizes a differing CSV or JSON file.

The tool is loaded from its file; these tests run no CLI and no git.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)
largest = compare_outputs.largest_differences


def test_csv_difference_is_sized_at_its_cell():
    a = b"n,tau,y\n0,0,1.5\n1,2.0000000000000004,3\n"
    b = b"n,tau,y\n0,0,1.5\n1,2,3.0000000000003\n"
    assert largest("chain.csv", a, b) == (
        "\n  largest absolute difference over its numbers: 3e-13 at line 3 column 3"
        "\n  largest relative difference over its numbers: 1e-13 at line 3 column 3")


def test_json_difference_is_sized_at_its_key_path():
    a = b'{"forward": {"w1": 0.5, "per_regime": [1.0, 2.0]}, "model": "gene", "ok": true}'
    b = b'{"forward": {"w1": 0.5, "per_regime": [1.0, 2.2]}, "model": "gene", "ok": false}'
    assert largest("distances.json", a, b).endswith(
        "difference over its numbers: 0.0909 at forward.per_regime[1]")


def test_a_round_off_value_gone_to_zero_does_not_hide_the_absolute_size():
    # relative to itself a round-off residual that drops to 0 moves by 1; the
    # absolute difference shows the largest move is at rounding level elsewhere
    a = b'{"correspondence": {"normalizer_product_error": 2.220446049250313e-16}, "mean": 2.5}'
    b = b'{"correspondence": {"normalizer_product_error": 0.0}, "mean": 2.5000000000000004}'
    assert largest("oracle.json", a, b) == (
        "\n  largest absolute difference over its numbers: 4.44e-16 at mean"
        "\n  largest relative difference over its numbers: 1 at "
        "correspondence.normalizer_product_error")


def test_numbers_that_do_not_pair_up_or_other_files_get_no_size():
    assert "do not pair up" in largest("chain.csv", b"n\n0\n1\n", b"n\n0\n")
    assert "do not pair up" in largest("a.json", b'{"x": 1}', b'{"y": 1}')
    assert largest("run.log", b"1", b"2") == ""


def test_a_non_finite_value_against_a_number_is_the_largest():
    assert largest("a.csv", b"1,2\n", b"1,nan\n").endswith("nan at line 1 column 2")
    assert largest("a.csv", b"inf,nan\n", b"1e308,nan\n").endswith("nan at line 1 column 1")
    assert largest("a.csv", b"1.0,nan\n", b"1,nan\n") == "\n  its numbers are equal"
