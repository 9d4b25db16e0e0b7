"""Acceptance suite: one test per criterion, at the stated tolerances.

Experiments run once through the config-driven runner (shared session
fixture, lazily computed) so the asserted numbers are exactly the persisted
ones.  Each test prints a PASS line with its headline figures; run with
``pytest tests/test_acceptance.py -v -s`` to watch them.
"""

import json
import re

import pytest

from ergolab.config import parse_config_text
from ergolab.runner import data_section_bytes, report, run

SEED = 20250809

_CONFIGS = {
    "hit_doubling": """
        [experiment]
        kind = hitting
        system = doubling
        seed = 101
        output = {out}
        [observable]
        rule = dist:0.375
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 14
        [hitting]
        points = 200
        cap = 10000000
        """,
    "hit_doubling_fine": """
        [experiment]
        kind = hitting
        system = doubling
        seed = 101
        output = {out}
        [observable]
        rule = dist:0.375
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 14
        per_octave = 2
        [hitting]
        points = 200
        cap = 10000000
        """,
    "hit_cat": """
        [experiment]
        kind = hitting
        system = cat
        seed = 102
        output = {out}
        [observable]
        rule = dist:0.3,0.7
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 8
        [hitting]
        points = 200
        cap = 1000000
        """,
    "hit_golden": """
        [experiment]
        kind = hitting
        system = rotation:golden
        seed = 103
        output = {out}
        [observable]
        rule = dist:0.375
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 12
        [hitting]
        points = 150
        """,
    "hit_liouville": """
        [experiment]
        kind = hitting
        system = rotation:liouville
        seed = 104
        output = {out}
        [observable]
        rule = dist:0.375
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 12
        [hitting]
        points = 150
        cap = 1000000
        """,
    "hit_mp": """
        [experiment]
        kind = hitting
        system = mp:0.3
        seed = 105
        output = {out}
        [observable]
        rule = dist:0.5
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 10
        [hitting]
        points = 150
        cap = 2000000
        """,
    "borel_cantelli": """
        [experiment]
        kind = borel-cantelli
        system = doubling
        seed = 106
        output = {out}
        [observable]
        rule = dist:0.375
        [borel-cantelli]
        beta = 0.5
        k_max = 100000
        points = 100
        """,
    "intersection": """
        [experiment]
        kind = intersection-bound
        system = doubling
        seed = 107
        output = {out}
        [observable]
        rule = dist:0.375
        [ladder]
        kind = dyadic
        start_exp = 1
        stop_exp = 22
        [intersection-bound]
        pairs = 7:2,8:3,9:1,10:4,11:3,12:7,13:2,13:8,14:6,15:9,16:4,16:11,17:8,18:5,18:13,19:10,20:3,20:14,21:12,21:6
        samples = 150000
        decay_samples = 400000
        """,
    "returns_doubling": """
        [experiment]
        kind = return-stats
        system = doubling
        seed = 108
        output = {out}
        [observable]
        rule = dist:0.375
        [return-stats]
        radius = 0.0009765625
        samples = 10000
        l_values = 0.5,20
        """,
    "returns_golden": """
        [experiment]
        kind = return-stats
        system = rotation:golden
        seed = 109
        output = {out}
        [observable]
        rule = dist:0.375
        [return-stats]
        radius = 0.0009765625
        samples = 10000
        l_values = 0.5,20
        """,
    "returns_cat": """
        [experiment]
        kind = return-stats
        system = cat
        seed = 110
        output = {out}
        [observable]
        rule = dist:0.3,0.7
        [return-stats]
        radius = 0.05
        samples = 4000
        l_values = 0.5,20
        """,
    "returns_liouville": """
        [experiment]
        kind = return-stats
        system = rotation:liouville
        seed = 111
        output = {out}
        [observable]
        rule = dist:0.375
        [return-stats]
        radius = 0.05
        samples = 4000
        cap = 3000000
        l_values = 0.5,20
        """,
    "observed_equality_proj": """
        [experiment]
        kind = observed
        system = cat
        seed = 112
        output = {out}
        [observed]
        mode = equality
        map = proj:1
        points = 500
        cap = 4000
        """,
    "observed_equality_wave": """
        [experiment]
        kind = observed
        system = cat
        seed = 113
        output = {out}
        [observed]
        mode = equality
        map = wave:2
        points = 500
        cap = 4000
        """,
    "rank_identity": """
        [experiment]
        kind = observed
        system = cat
        seed = 114
        output = {out}
        [observed]
        mode = rank-dimension
        map = identity
        points = 50
        samples_per_rung = 50000
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 10
        """,
    "rank_proj": """
        [experiment]
        kind = observed
        system = cat
        seed = 115
        output = {out}
        [observed]
        mode = rank-dimension
        map = proj:1
        points = 50
        samples_per_rung = 50000
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 10
        """,
    "rank_wave": """
        [experiment]
        kind = observed
        system = cat
        seed = 116
        output = {out}
        [observed]
        mode = rank-dimension
        map = wave:2
        points = 50
        samples_per_rung = 50000
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 10
        """,
    "rank_linear": """
        [experiment]
        kind = observed
        system = cat
        seed = 117
        output = {out}
        [observed]
        mode = rank-dimension
        map = linear:[[1,0],[2,0]]
        points = 50
        samples_per_rung = 50000
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 10
        """,
    "rank_const": """
        [experiment]
        kind = observed
        system = cat
        seed = 118
        output = {out}
        [observed]
        mode = rank-dimension
        map = const:0.4
        points = 50
        samples_per_rung = 50000
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 10
        """,
    "observed_exponent": """
        [experiment]
        kind = observed
        system = cat
        seed = 119
        output = {out}
        [observed]
        mode = hitting-exponent
        map = proj:1
        image_point = 0.5
        points = 200
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 10
        """,
    "flow": """
        [experiment]
        kind = flow-analogue
        system = cat
        seed = 120
        output = {out}
        [flow-analogue]
        projection = identity
        points = 100
        n_max = 1000000
        target = 0.31,0.77
        """,
}

CORPUS_HITTING = (
    "hit_doubling", "hit_cat", "hit_golden", "hit_liouville", "hit_mp",
)

EXACT_MEASURE_RETURNS = (
    "returns_doubling", "returns_golden", "returns_cat", "returns_liouville",
)


class Lab:
    """Lazily executes and caches the acceptance experiment runs."""

    def __init__(self, root):
        self.root = root
        self._cache = {}

    def result(self, name):
        if name not in self._cache:
            out = self.root / f"{name}.json"
            config = parse_config_text(_CONFIGS[name].format(out=out))
            self._cache[name] = run(config)
        return self._cache[name]

    def summary(self, name):
        return self.result(name)["summary"]


@pytest.fixture(scope="session")
def lab(tmp_path_factory):
    return Lab(tmp_path_factory.mktemp("acceptance"))


def test_criterion_01_log_law_one_dimensional(lab):
    s = lab.summary("hit_doubling")
    up, low = s["R_upper"]["median"], s["R_lower"]["median"]
    assert 0.85 <= up <= 1.15
    assert 0.85 <= low <= 1.15
    print(f"criterion 1: PASS  doubling median R_upper={up:.3f} "
          f"R_lower={low:.3f} in [0.85, 1.15] (exact d = 1)")


def test_criterion_02_log_law_two_dimensional(lab):
    s = lab.summary("hit_cat")
    exp = s["exponent"]["median"]
    assert 1.7 <= exp <= 2.3
    print(f"criterion 2: PASS  cat median exponent={exp:.3f} in [1.7, 2.3] "
          f"(exact d = 2)")


def test_criterion_03_exponent_measure_inequality_corpus(lab):
    details = []
    for name in CORPUS_HITTING:
        s = lab.summary(name)
        up, low = s["R_upper"]["median"], s["R_lower"]["median"]
        assert up >= s["d_upper"] - 0.15, (name, up, s["d_upper"])
        assert low >= s["d_lower"] - 0.15, (name, low, s["d_lower"])
        assert s["exponent_floor_upper_holds"] and s["exponent_floor_lower_holds"], name
        details.append(f"{name}:R_low={low:.2f}>=d_low-0.15={s['d_lower'] - 0.15:.2f}")
    print("criterion 3: PASS  " + "; ".join(details))


def test_criterion_04_shrinking_target_counter(lab):
    s = lab.summary("borel_cantelli")
    assert s["fraction_in_band"] >= 0.9
    assert 0.95 <= s["final_ratio_mean"] <= 1.05
    print(f"criterion 4: PASS  Z/E at k=1e5: mean={s['final_ratio_mean']:.3f} "
          f"in-band={s['fraction_in_band']:.2f} (need >=0.9)")


def test_criterion_05_intersection_bound(lab):
    s = lab.summary("intersection")
    assert s["checked"] == 20
    assert s["all_hold"]
    rows = lab.result("intersection")["data"]["pairs"]
    assert all(k - j >= 5 for k, j, *_ in rows)
    print(f"criterion 5: PASS  20/20 intersection bounds hold "
          f"(decay fit: {s['decay_kind']}, rate={s['decay_rate']:.3f})")


def test_criterion_06_return_law_dichotomy(lab):
    mixing = lab.summary("returns_doubling")
    assert mixing["sup_distance_to_exponential"] <= 0.1
    rotation = lab.summary("returns_golden")
    assert rotation["jump_clusters"] <= 3
    print(f"criterion 6: PASS  doubling sup|g-exp(-t)|="
          f"{mixing['sup_distance_to_exponential']:.3f} <= 0.1; golden rotation "
          f"jump clusters={rotation['jump_clusters']} <= 3")


def test_criterion_07_kac_and_long_return_suite(lab):
    details = []
    for name in EXACT_MEASURE_RETURNS:
        s = lab.summary(name)
        assert s["measure_exact"], name
        stderr = max(s["kac_stderr"], 1e-12)
        assert abs(s["kac_product"] - 1.0) <= 4.0 * stderr, (name, s["kac_product"])
        indicators = {l: (v, hw) for l, v, hw in lab.result(name)["data"]["indicators"]}
        value, hw = indicators[20.0]
        assert value <= 0.05 + 3.0 * hw, (name, value)
        details.append(f"{name}:kac={s['kac_product']:.3f}")
    print("criterion 7: PASS  " + "; ".join(details))


def test_criterion_08_observed_systems(lab):
    eq_total = 0
    for name in ("observed_equality_proj", "observed_equality_wave"):
        s = lab.summary(name)
        assert s["all_equal"], name
        eq_total += s["cases"]
    assert eq_total >= 1000

    for name in ("rank_identity", "rank_proj", "rank_wave", "rank_linear", "rank_const"):
        s = lab.summary(name)
        assert s["agreement_fraction"] >= 0.9, (name, s["agreement_fraction"])

    s = lab.summary("observed_exponent")
    exp = s["exponent"]["median"]
    assert abs(exp - 1.0) <= 0.2
    assert abs(s["pushforward_dimension"] - 1.0) <= 0.1
    print(f"criterion 8: PASS  {eq_total} exact equalities; rank-dimension "
          f"agreement >=0.9 on 5 maps; observed exponent median={exp:.3f}")


def test_criterion_09_approach_distance_scaling(lab):
    s = lab.summary("flow")
    exp = s["exponent"]["median"]
    assert 0.4 <= exp <= 0.6
    print(f"criterion 9: PASS  cat/identity-projection approach exponent "
          f"median={exp:.3f} in [0.4, 0.6] (predicted 1/2)")


def test_criterion_10_ladder_robustness(lab):
    coarse = lab.summary("hit_doubling")
    fine = lab.summary("hit_doubling_fine")
    d_up = abs(coarse["R_upper"]["median"] - fine["R_upper"]["median"])
    d_low = abs(coarse["R_lower"]["median"] - fine["R_lower"]["median"])
    assert d_up <= 0.1 and d_low <= 0.1
    print(f"criterion 10: PASS  refined ladder shifts: d(R_upper)={d_up:.3f} "
          f"d(R_lower)={d_low:.3f} (need <= 0.1)")


def test_criterion_11_worker_count_determinism(lab, tmp_path):
    results = {}
    for workers in (1, 2):
        out = tmp_path / f"det_w{workers}.json"
        text = _CONFIGS["hit_cat"].format(out=out).replace(
            "points = 200", "points = 24").replace("seed = 102", "seed = 990")
        results[workers] = run(parse_config_text(text), workers=workers)
    assert data_section_bytes(results[1]) == data_section_bytes(results[2])

    bc = {}
    for workers in (1, 2):
        out = tmp_path / f"det_bc_w{workers}.json"
        text = _CONFIGS["borel_cantelli"].format(out=out).replace(
            "k_max = 100000", "k_max = 3000").replace(
            "points = 100", "points = 16").replace("seed = 106", "seed = 991")
        bc[workers] = run(parse_config_text(text), workers=workers)
    assert data_section_bytes(bc[1]) == data_section_bytes(bc[2])
    print("criterion 11: PASS  byte-identical data sections at workers=1 vs 2 "
          "(hitting and counter runs)")


# each acceptance config at a tiny size, plus the one kind no acceptance
# config runs, correlations on the engines none correlates on, Monte Carlo
# counter targets and an observed exponent on mp; the decay fit keeps enough
# samples to find six lags
TINY = {"points": "3", "samples": "40", "samples_per_rung": "2000", "n_max": "20000",
        "k_max": "2000", "decay_samples": "100000"}
TINY_CONFIGS = {
    **{name: re.sub(r"^(\s*(%s)\s*=\s*)\S+$" % "|".join(TINY),
                    lambda m: m.group(1) + TINY[m.group(2)], text, flags=re.M)
       for name, text in _CONFIGS.items()},
    "dimension": """
        [experiment]
        kind = dimension
        system = cat
        seed = 121
        output = {out}
        [observable]
        rule = dist:0.3,0.7
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 8
        """,
    **{f"correlation_{system}": f"""
        [experiment]
        kind = correlation
        system = {system}
        seed = 122
        output = {{out}}
        [correlation]
        phi = dyadicmix:10
        lags = 0..8
        samples = 1000
        """ for system in ("doubling", "cat")},
    "borel_cantelli_mc": """
        [experiment]
        kind = borel-cantelli
        system = doubling
        seed = 123
        output = {out}
        [observable]
        rule = dist:0.375
        [borel-cantelli]
        beta = 0.5
        k_max = 2000
        points = 3
        measures = mc
        mc_samples = 20000
        """,
    "observed_exponent_mp": """
        [experiment]
        kind = observed
        system = mp:0.3
        seed = 124
        output = {out}
        [observed]
        mode = hitting-exponent
        map = proj:1
        image_point = 0.0
        points = 3
        cap = 20000
        [ladder]
        kind = dyadic
        start_exp = 3
        stop_exp = 8
        """,
}
PLAIN = (str, int, float, bool, type(None))


def _assert_plain(value, path):
    """The runner writes data and summary as returned: exactly dicts with str
    keys, lists, str, int, float, bool and None (no numpy scalar, no tuple)."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, f"{path}: key {key!r}"
            _assert_plain(item, f"{path}.{key}")
    elif type(value) is list:
        for i, item in enumerate(value):
            _assert_plain(item, f"{path}[{i}]")
    else:
        assert type(value) in PLAIN, f"{path}: {type(value).__name__} {value!r}"


@pytest.mark.parametrize("name", TINY_CONFIGS)
def test_worker_count_never_changes_the_data(tmp_path, name):
    text = TINY_CONFIGS[name]
    results = [run(parse_config_text(text.format(out=tmp_path / f"w{w}.json")), workers=w)
               for w in (1, 2, 3)]
    assert [r["meta"]["workers"] for r in results] == [1, 2, 3]
    assert all(data_section_bytes(r) == data_section_bytes(results[0]) for r in results)
    for section in ("data", "summary"):
        _assert_plain(results[0][section], section)


# the estimator-level contrapositive is meaningful only where the exponent
# estimate has converged; the liouville run is excluded because its lower
# exponent at feasible radii is pre-asymptotically inflated by the convergent
# structure (which is exactly what its own example test asserts)
RETURNS_FOR_HITTING = {
    "returns_doubling": "hit_doubling",
    "returns_golden": "hit_golden",
    "returns_cat": "hit_cat",
}


def test_invariant_nontrivial_returns_bound_lower_exponent(lab):
    # contrapositive at estimator level: a return law bounded away from 0
    # at some fixed l forces the lower hitting exponent under d_upper + 0.2
    triggered = 0
    for returns_name, hitting_name in RETURNS_FOR_HITTING.items():
        indicators = {l: v for l, v, _ in lab.result(returns_name)["data"]["indicators"]}
        if indicators[0.5] > 0.2:
            triggered += 1
            hit = lab.summary(hitting_name)
            assert hit["R_lower"]["median"] <= hit["d_upper"] + 0.2, returns_name
    assert triggered > 0  # the mixing corpus members certainly trigger


def test_invariant_flow_exponent_reciprocal_to_hitting(lab):
    # the approach exponent and the ball-hitting exponent are reciprocal
    flow_exp = lab.summary("flow")["exponent"]["median"]
    hit_exp = lab.summary("hit_cat")["exponent"]["median"]
    assert abs(flow_exp - 1.0 / hit_exp) <= 0.2


def test_report_over_acceptance_corpus(lab, tmp_path):
    # report flags come from persisted fits; every corpus row must hold
    results = [lab.result(name) for name in CORPUS_HITTING]
    out = tmp_path / "acceptance_report.txt"
    text = report(results, str(out))
    assert "violated" not in text
    assert text.count("holds") == len(CORPUS_HITTING)
    assert out.exists()
    round_trip = [json.loads((lab.root / f"{n}.json").read_text())
                  for n in CORPUS_HITTING]
    assert report(round_trip) == text
