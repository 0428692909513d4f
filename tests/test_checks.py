import functools

import pytest

from springercenter import bgg, ce_oracle, checks, rootdata, springer


def _sl3_diamond_with(entry, h):
    def corrupt(monkeypatch):
        diamond = {**bgg.hodge_diamond(3), entry: h}
        return lambda: diamond
    return corrupt


def _double_an_arrow(monkeypatch):
    # the arrow () -> (1,) of the sl4 resolution doubled, so the squares
    # from () stop cancelling (the sl3 complexes are too short to notice)
    res = bgg._resolution(4)
    res[(), (1,)] = [(2 * c, w) for c, w in res[(), (1,)]]
    monkeypatch.setattr(bgg, "bgg_data", functools.cache(lambda m: bgg.BGGData(m, res)))


def _first_label_as_witness(monkeypatch):
    real = springer.trivial_summand_witness

    def first_label(m, k=2, r=1):
        comp, _ = real(m, k, r)
        return comp, {comp.module.labels((0,) * (m - 1))[0]: 1}

    monkeypatch.setattr(springer, "trivial_summand_witness", first_label)


@pytest.mark.parametrize("check, m, corrupt, names", [
    (checks.check_complex, 4, _double_an_arrow, "sl_4: composite of maps 0 and 1"),
    (checks.check_duality, 3, _sl3_diamond_with((1, 5), 3), r"entry \(1, 5\) is 2"),
    (checks.check_sl2, 3, _sl3_diamond_with((0, 4), 2), r"entry \(0, 4\) is 2"),
    (checks.check_oracle, 2, lambda mp: mp.setattr(ce_oracle, "ce_cohomology", lambda *a: []),
     r"V_0\^\{-0\}: resolution \[1, 0\]"),
    (checks.check_bwb, 2, lambda mp: mp.setattr(rootdata, "bwb_classify", lambda lam: (
        "singular", None, None)), r"weight \(-?\d+,\) classifies as \(singular"),
    (checks.check_witness, 3, _first_label_as_witness, "does not kill the witness"),
], ids=["complex", "duality", "sl2", "oracle", "bwb", "witness"])
def test_each_check_fails_on_its_own_corruption(monkeypatch, check, m, corrupt, names):
    get_diamond = corrupt(monkeypatch) or functools.cache(lambda: bgg.hodge_diamond(m))
    with pytest.raises(checks.InvariantFails, match=names):
        check(m, get_diamond)
