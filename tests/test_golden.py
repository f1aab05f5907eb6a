"""Short runs against tests/golden.py, written by make_golden.py.

Under the environment the data were recorded in (numpy version and CPU
SIMD features) every time-series word and every digest must be equal.
Under any other, each column is compared at ULP_BOUND units in the last
place of its scale and the digests are not compared; the failure message
says which comparison ran.
"""

import numpy as np
import pytest

import golden
import make_golden

ULP_BOUND = 4096

RECORDED = golden.ENVIRONMENT
EXACT = make_golden.environment() == RECORDED
COMPARISON = (
    f"byte comparison under the recorded environment (numpy {RECORDED['numpy']})"
    if EXACT
    else f"comparison at {ULP_BOUND} ulp of each column's scale, since this environment "
    f"{make_golden.environment()} is not the recorded {RECORDED}; digests not compared"
)

# energy_residual is a small difference of these columns; its rounding
# follows their scale, not its own.
_RESIDUAL_TERMS = ("h0_sq", "dissipation_integral", "work_integral")


def _floats(text: str) -> np.ndarray:
    return np.array([float.fromhex(x) for x in text.split()])


def _float_mismatch(name: str, have_text: str, want_text: str, scale_text: str, exact: bool):
    """How float.hex values differ from their golden ones, or None."""
    have, expect = _floats(have_text), _floats(want_text)
    if have.shape != expect.shape:
        return f"{name} has {have.size} samples, expected {expect.size}"
    if exact:
        if have_text == want_text:
            return None
        first = int(np.argmax(have.view(np.uint64) != expect.view(np.uint64)))
        return f"{name} differs first at sample {first}"
    scale = np.abs(_floats(scale_text)).max()
    ulps = np.abs(have - expect).max() / np.spacing(scale)
    return None if ulps <= ULP_BOUND else f"{name} differs by {ulps:.0f} ulp of its scale {scale:.3e}"


def mismatches(got: dict, want: dict, exact: bool) -> list[str]:
    """What differs between a computed record and its golden one."""
    out = []
    for key, value in want.items():
        if key in ("final", "snapshot"):
            out.append(f"{key} differs" if exact and got[key] != value else None)
        elif isinstance(value, str):  # one float.hex value
            out.append(_float_mismatch(key, got[key], value, value, exact))
        elif key != "columns" and got[key] != value:
            out.append(f"{key} differs")
    columns = want.get("columns", {})
    for name, text in columns.items():
        terms = _RESIDUAL_TERMS if name == "energy_residual" else (name,)
        scale = " ".join(columns[t] for t in terms)
        out.append(_float_mismatch(f"column {name}", got["columns"][name], text, scale, exact))
    return [found for found in out if found]


@pytest.fixture(scope="module")
def computed():
    return make_golden.collect()


def _check(got: dict, want: dict, what: str) -> None:
    found = mismatches(got, want, EXACT)
    assert not found, f"{what} left its golden data ({COMPARISON}): " + "; ".join(found)


@pytest.mark.parametrize("key", list(golden.RUNS), ids=lambda k: "K{}-{}-{}-every{}".format(
    k[0], k[1], "forced" if k[2] else "unforced", k[3]))
def test_run_matches_golden(computed, key):
    _check(computed["runs"][key], golden.RUNS[key], f"run {key}")


def test_golden_covers_every_run():
    assert list(golden.RUNS) == list(make_golden.run_keys())


def test_probe_matches_golden(computed):
    got, want = computed["probe"], golden.PROBE
    _check({"T0": got["T0"]}, {"T0": want["T0"]}, "the probe's T0")
    assert list(got["members"]) == list(want["members"]) == [0, 1]
    for i, member in want["members"].items():
        _check(got["members"][i], member, f"probe member {i}")


def test_resume_matches_golden(computed):
    _check(computed["resume"], golden.RESUME, "the resumed run")


def test_ulp_comparison_holds_to_its_bound():
    want = golden.RUNS[(8, "two_thirds", True, 1)]
    h0 = _floats(want["columns"]["h0_sq"])
    step = np.spacing(np.abs(h0).max())

    def moved(ulps):
        h0_moved = " ".join(float(x).hex() for x in h0 + ulps * step)
        return {**want, "final": "", "columns": {**want["columns"], "h0_sq": h0_moved}}

    assert mismatches(moved(ULP_BOUND // 2), want, exact=False) == []
    [found] = mismatches(moved(2 * ULP_BOUND), want, exact=False)
    assert found.startswith("column h0_sq differs by ")
    assert mismatches(moved(1), want, exact=True) == [
        "final differs", "column h0_sq differs first at sample 0"
    ]
