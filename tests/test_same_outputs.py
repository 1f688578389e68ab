import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def test_a_gradcheck_diff_names_one_sided_and_changed_cases():
    parent = ("add: 1.514e-10\nmatmul: 9.771e-10\nscale: 1.098e-10\ntranspose: 7.879e-11\n"
              "max relative error 9.771e-10 (below threshold 0.0001)\n")
    change = ("add: 5.016e-11\nmatmul_t: 6.001e-11\nscale: 1.098e-10\n"
              "max relative error 6.001e-11 (below threshold 0.0001)\n")
    assert same_outputs._gradcheck_diff(parent, change) == [
        "  parent only: matmul, transpose",
        "  change only: matmul_t",
        "  add: 1.514e-10 -> 5.016e-11",
    ]
    assert same_outputs._gradcheck_diff(parent, parent) == []
