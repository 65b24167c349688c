"""artifact_diff.compare on small CSV and JSON files: no CLI runs."""

import json

import pytest

from artifact_diff import compare


def pair(tmp_path, suffix, base, head):
    paths = [tmp_path / f"{side}{suffix}" for side in ("base", "head")]
    for path, text in zip(paths, (base, head)):
        path.write_text(text if suffix == ".csv" else json.dumps(text), encoding="utf-8")
    return paths


@pytest.mark.parametrize("suffix, base, head, verdict", [
    (".csv", "a,b\n1.0,2.0\n", "a,b\n1.0,2.0\n", "identical"),
    (".json", {"x": 1.0, "runtime": 3.0}, {"x": 1.0, "runtime": 4.5},
     "identical (runtime ignored)"),
    (".json", {"x": float("nan"), "runtime": 3.0}, {"x": float("nan"), "runtime": 4.0},
     "identical (runtime ignored)"),
    (".csv", "a,b\n1.0,2.0\n4.0,-1.0\n", "a,b\n1.5,2.0\n4.0,-1.25\n",
     "max abs diff 0.5 at line 2 column a, max rel diff 0.333 at line 2 column a"),
    (".csv", "a,b\n1.0,2.0\n", "a,b\n1.0,nan\n",
     "different non-finite value at line 2 column b: 2.0 vs nan"),
    (".json", {"x": [1.0, 2.0]}, {"x": [1.0, float("inf")]},
     "different non-finite value at x[1]: 2.0 vs inf"),
    (".json", {"x": float("-inf")}, {"x": float("inf")},
     "different non-finite value at x: -inf vs inf"),
    # a non-finite value is named first, and the finite differences still counted
    (".csv", "a,b\n1.0,2.0\n", "a,b\n1.25,nan\n",
     "different non-finite value at line 2 column b: 2.0 vs nan; max abs diff 0.25 at "
     "line 2 column a, max rel diff 0.2 at line 2 column a"),
    (".csv", "a\nx\n", "a\ny\n", "different text at line 2 column a: 'x' vs 'y'"),
    # a move of a cell that is roundoff of zero is taken against eps times its column's
    # largest magnitude, 1.0 here, not against the cell itself
    (".csv", "t,v\n0.5,1.0\n1.0,1e-19\n", "t,v\n0.5,1.0\n1.0,2e-19\n",
     "max abs diff 1e-19 at line 3 column v, max rel diff 0.00045 at line 3 column v"),
    (".json", {"o": [{"m": 2.0}, {"m": 1e-17}]}, {"o": [{"m": 2.0}, {"m": 2e-17}]},
     "max abs diff 1e-17 at o[1].m, max rel diff 0.0225 at o[1].m"),
    # the floor comes from the cell's own column: a column of roundoff keeps its own scale
    (".csv", "a,b\n1e-19,1.0\n", "a,b\n2e-19,1.0\n",
     "max abs diff 1e-19 at line 2 column a, max rel diff 0.5 at line 2 column a"),
    (".json", {"x": [1e-19], "y": 1.0}, {"x": [2e-19], "y": 1.0},
     "max abs diff 1e-19 at x[0], max rel diff 0.5 at x[0]"),
], ids=["identical", "runtime-only", "nan-on-both-sides", "numeric", "nan-against-number",
        "inf-against-number", "inf-against-minus-inf", "nan-and-numeric", "text",
        "roundoff-of-zero-csv", "roundoff-of-zero-json", "own-column-csv", "own-key-json"])
def test_compare_names_each_kind_of_difference_at_its_place(tmp_path, suffix, base, head,
                                                            verdict):
    assert compare(*pair(tmp_path, suffix, base, head)) == verdict
