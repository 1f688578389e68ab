import pytest

import stepgate.autodiff as ad
from stepgate.errors import ContractError
from stepgate.harness import gradsuite
from stepgate.harness.gradsuite import (THRESHOLD, run_gradient_suite,
                                        suite_passes)


@pytest.fixture(scope="module")
def errors():
    return run_gradient_suite(0)


def test_suite_covers_ops_gating_and_the_full_loss(errors):
    # every op the tape can record has a case under its tape name
    assert set(ad._BACKWARD) <= set(errors)
    assert "rate_penalty" in errors
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


def test_a_coordinate_at_fd_rounding_passes():
    """Seed 6 has an attention gradient coordinate of -5e-8 whose analytic
    and central-difference values differ by about 1e-11, within the central
    difference's own rounding error."""
    assert suite_passes(run_gradient_suite(6))


@pytest.mark.parametrize("seed", [0, 6])
def test_a_wrong_attention_weight_gradient_fails_the_suite(seed, monkeypatch):
    right = ad._BACKWARD["attention"]

    def wrong(node, g, data):
        gx, g_q, g_k, g_v = right(node, g, data)
        return gx, 1.001 * g_q, g_k, g_v

    monkeypatch.setitem(ad._BACKWARD, "attention", wrong)
    errors = run_gradient_suite(seed)
    assert not suite_passes(errors)
    for name in ("attention_q", "attention_stack_q", "e2e_loss/selector.attn_q"):
        assert errors[name] > THRESHOLD, name


@pytest.mark.parametrize("seed", range(10))
def test_every_suite_seed_finds_gate_noise_and_passes(seed):
    assert suite_passes(run_gradient_suite(seed))


def test_no_gate_noise_seed_with_room_is_a_contract_error(monkeypatch):
    monkeypatch.setattr(gradsuite, "_MARGIN", 1e3)
    with pytest.raises(ContractError, match="no gate-noise seed"):
        gradsuite._e2e_cases(0)
