"""Edge values of the CLI contract, run in-process through ``front.main``.

Every case exits 0, 2 or 3 and prints no warning.  A failure prints exactly
one stderr line; a success prints nothing there and writes no ``nan`` or
``inf`` into its data files.
"""

import json
import re
import warnings

import pytest

from curvedlattice.front import main

_NON_FINITE = re.compile(r"\b(?:nan|inf|NaN|Infinity)\b")


def _run(argv, out_dir, capsys):
    """Exit code, stdout, stderr and the warnings caught of one command."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    return code, out, err, caught


@pytest.mark.parametrize("argv,code,message", [
    # the sum of squares of a matrix of entries near 1e-200 underflows
    (["classify", "--family", "weyl", "--L", "5", "--q", "1e-201", "--r", "1e-200", "--a", "1e200"],
     0, None),
    # the default broadening is about 1e-300, and its square underflows
    (["ldos", "--family", "flat", "--L", "5", "--a", "1e300"],
     3, "numerical failure: broadening gamma=1.10266e-300 cannot be squared"),
    (["spectrum", "--family", "flat", "--L", "5", "--a", "1e-320"],
     3, "numerical failure: lattice spacing a=1e-320 must be positive"),
    (["spectrum", "--family", "rindler", "--L", "5", "--M", "1e300"], 0, None),
    (["classify", "--family", "weyl", "--L", "5", "--q", "0.05", "--r", "1e300"], 0, None),
], ids=["classify-weyl-tiny", "ldos-flat-a1e300", "spectrum-flat-a1e-320",
        "spectrum-rindler-M1e300", "classify-weyl-r1e300"])
def test_edge_value_keeps_the_cli_contract(argv, code, message, tmp_path, capsys):
    got, out, err, caught = _run(argv, tmp_path, capsys)
    assert got in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    assert got == code
    if code:
        assert len(err.splitlines()) == 1 and err.startswith(message)
        return
    assert err == ""
    for path in out.splitlines():
        with open(path) as fh:
            text = fh.read()
        assert not _NON_FINITE.search(text), f"{path}: {text}"


def test_a_scaled_weyl_metric_classifies_as_at_unit_scale(tmp_path, capsys):
    # every entry scaled by 1e-200: the class and the relative residuals stay
    reports = []
    for i, scale in enumerate([["--q", "1e-201", "--r", "1e-200", "--a", "1e200"],
                               ["--q", "0.1", "--r", "1", "--a", "1"]]):
        argv = ["classify", "--family", "weyl", "--L", "5", *scale]
        assert _run(argv, tmp_path / str(i), capsys)[0] == 0
        reports.append(json.loads((tmp_path / str(i) / "symmetry.json").read_text()))
    tiny, unit = reports
    assert tiny["classification"] == unit["classification"] == "NonHermitian"
    for key in ("hermitian_residual", "quasi_hermitian_residual", "pt_residual"):
        assert tiny[key] == pytest.approx(unit[key], rel=1e-12, abs=0.0)
