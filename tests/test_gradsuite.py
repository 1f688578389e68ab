import pytest

import stepgate.autodiff as ad
from stepgate.harness.gradsuite import (THRESHOLD, run_gradient_suite,
                                        suite_passes)


@pytest.fixture(scope="module")
def errors():
    return run_gradient_suite(0)


def test_suite_covers_ops_gating_and_the_full_loss(errors):
    # every op the tape can record has a case under its tape name
    assert set(ad._BACKWARD) <= set(errors)
    assert "l0_penalty" in errors
    assert any(n.startswith("e2e_loss/") for n in errors)


def test_every_check_is_below_threshold(errors):
    for name, err in errors.items():
        assert err < THRESHOLD, f"{name} drifted to {err:.3e}"
    assert suite_passes(errors)


def test_suite_is_deterministic(errors):
    assert run_gradient_suite(0) == errors


def test_suite_passes_logic():
    assert not suite_passes({})
    assert suite_passes({"a": 1e-9})
    assert not suite_passes({"a": 1e-9, "b": 2e-4})
    assert suite_passes({"a": 0.5}, threshold=1.0)
