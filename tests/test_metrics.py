"""Metric definitions vs the naive reference, plus report plumbing."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskrank.index import RankedList, Run
from riskrank.metrics import evaluate_run

from reference import (
    naive_ap, naive_hit_rate, naive_mrr, naive_ndcg, reference_evaluate_run,
    reference_ranked_list,
)


def ranked(query_id, ids):
    """RankedList whose item order is exactly ``ids``."""
    return reference_ranked_list(
        query_id, [(item, float(len(ids) - i)) for i, item in enumerate(ids)]
    )


def run_of(*rankings):
    """The run that ``Run.from_rankings`` makes of the rankings."""
    return Run.from_rankings(rankings)


def values_at(ids, relevant, k):
    """Every metric at cutoff ``k`` for one query ranked as ``ids``."""
    return evaluate_run(run_of(ranked("q", ids)), {"q": relevant}, (k,)).per_query["q"]


class TestMRR:
    def test_first_rank(self):
        assert values_at(["rel", "x"], {"rel"}, 10)["MRR@10"] == 1.0

    def test_rank_three(self):
        values = values_at(["a", "b", "rel", "c"], {"rel"}, 10)
        assert values["MRR@10"] == pytest.approx(1 / 3, abs=1e-12)

    def test_absent_from_top_k(self):
        ids = [f"x{i}" for i in range(10)] + ["rel"]
        assert values_at(ids, {"rel"}, 10)["MRR@10"] == 0.0

    def test_missing_query_in_qrels(self):
        with pytest.raises(ValueError, match="missing from qrels"):
            evaluate_run(run_of(ranked("q", ["a"])), {}, (10,))

    def test_query_ranked_twice(self):
        run = run_of(ranked("q", ["rel", "x"]), ranked("q", ["x", "rel"]))
        with pytest.raises(ValueError, match="'q' is ranked twice"):
            evaluate_run(run, {"q": {"rel"}}, (5,))


class TestMAP:
    def test_single_relevant_at_rank_four(self):
        assert values_at(["a", "b", "c", "rel"], {"rel"}, 100)["MAP@100"] == 0.25

    def test_two_relevant(self):
        values = values_at(["a", "b", "c", "d"], {"a", "c"}, 100)
        assert values["MAP@100"] == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-12)

    def test_none_retrieved(self):
        assert values_at(["a", "b"], {"zzz"}, 100)["MAP@100"] == 0.0

    def test_k_truncates_denominator(self):
        # three relevant but k=2: denominator is min(3, 2) = 2
        assert values_at(["r1", "r2", "r3"], {"r1", "r2", "r3"}, 2)["MAP@2"] == 1.0


class TestNDCG:
    def test_rank_one(self):
        assert values_at(["rel", "b"], {"rel"}, 10)["NDCG@10"] == 1.0

    def test_rank_two(self):
        values = values_at(["a", "rel"], {"rel"}, 10)
        assert values["NDCG@10"] == pytest.approx(0.6309297535714575, abs=1e-12)

    def test_absent(self):
        assert values_at(["a", "b"], {"zzz"}, 10)["NDCG@10"] == 0.0


class TestHitRate:
    def test_boundary_inclusion(self):
        assert values_at(["a", "b", "c", "d", "rel"], {"rel"}, 5)["HR@5"] == 1.0

    def test_boundary_exclusion(self):
        assert values_at(["a", "b", "c", "d", "e", "rel"], {"rel"}, 5)["HR@5"] == 0.0

    def test_aggregate_is_mean(self):
        run = run_of(
            ranked("q1", ["rel1"]),
            ranked("q2", ["x"]),
            ranked("q3", ["rel3"]),
        )
        qrels = {"q1": {"rel1"}, "q2": {"rel2"}, "q3": {"rel3"}}
        report = evaluate_run(run, qrels, (5,))
        assert report.aggregate["HR@5"] == pytest.approx(2 / 3, abs=1e-12)


def random_instance(rng):
    n_items = int(rng.integers(1, 200))
    universe = [f"item{i:03d}" for i in range(n_items)]
    order = list(rng.permutation(universe))
    n_rel = int(rng.integers(1, 6))
    pool = list(universe) + [f"missing{i}" for i in range(3)]
    relevant = set(
        rng.choice(pool, size=min(n_rel, len(pool)), replace=False).tolist()
    )
    return order, relevant


class TestAgainstNaiveReference:
    def test_random_instances_match(self, rng):
        for _ in range(300):
            order, relevant = random_instance(rng)
            run = run_of(ranked("q", order))
            qrels = {"q": relevant}
            for k in (1, 5, 10, 100):
                values = evaluate_run(run, qrels, (k,)).per_query["q"]
                assert values[f"MRR@{k}"] == pytest.approx(
                    naive_mrr(order, relevant, k), abs=1e-12
                )
                assert values[f"MAP@{k}"] == pytest.approx(
                    naive_ap(order, relevant, k), abs=1e-12
                )
                assert values[f"NDCG@{k}"] == pytest.approx(
                    naive_ndcg(order, relevant, k), abs=1e-12
                )
                assert values[f"HR@{k}"] == pytest.approx(
                    naive_hit_rate(order, relevant, k), abs=1e-12
                )


PROPERTY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

UNIVERSE = [f"i{i}" for i in range(12)]
MISSING = ["m0", "m1", "m2"]


@st.composite
def metric_cases(draw):
    """Up to four queries, each a ranking of distinct ids (possibly empty)
    and a relevant set (possibly empty, possibly naming ids never ranked),
    with k from 1 to past the longest ranking."""
    queries = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(UNIVERSE), unique=True),
            st.sets(st.sampled_from(UNIVERSE + MISSING)),
        ),
        min_size=1,
        max_size=4,
    ))
    k = draw(st.integers(1, len(UNIVERSE) + 3))
    return queries, k


class TestAgainstNaiveReferenceProperties:
    """Every metric family against its naive definition, per query and mean."""

    @PROPERTY_SETTINGS
    @given(metric_cases())
    def test_metrics_match_naive(self, case):
        queries, k = case
        run = run_of(*(ranked(f"q{i}", order) for i, (order, _) in enumerate(queries)))
        qrels = {f"q{i}": relevant for i, (_, relevant) in enumerate(queries)}
        report = evaluate_run(run, qrels, (k,))
        exact = [("MRR", naive_mrr), ("MAP", naive_ap), ("HR", naive_hit_rate)]
        for family, naive in exact:
            name = f"{family}@{k}"
            want = [naive(order, relevant, k) for order, relevant in queries]
            assert [report.per_query[f"q{i}"][name] for i in range(len(queries))] == want
            assert report.aggregate[name] == math.fsum(want) / len(want)
        for i, (order, relevant) in enumerate(queries):
            assert report.per_query[f"q{i}"][f"NDCG@{k}"] == pytest.approx(
                naive_ndcg(order, relevant, k), abs=1e-12
            )

    @PROPERTY_SETTINGS
    @given(metric_cases())
    def test_bounds_and_orderings(self, case):
        queries, k = case
        run = run_of(*(ranked(f"q{i}", order) for i, (order, _) in enumerate(queries)))
        qrels = {f"q{i}": relevant for i, (_, relevant) in enumerate(queries)}
        report = evaluate_run(run, qrels, (k,))
        for i, (order, relevant) in enumerate(queries):
            values = report.per_query[f"q{i}"]
            hr = values[f"HR@{k}"]
            assert hr == (1.0 if set(order[:k]) & relevant else 0.0)
            for name in (f"MRR@{k}", f"MAP@{k}", f"NDCG@{k}"):
                assert 0.0 <= values[name] <= hr
            if not order or not relevant:
                assert all(v == 0.0 for v in values.values())


@st.composite
def run_cases(draw):
    """A run over ids ``i0 ..``: up to five queries, each a ranking of
    distinct ids (possibly none) with falling, often tied scores, and qrels
    of zero or more ids per query, some of them absent from the run's ids.
    Cutoffs reach past the deepest ranking, and relevant hits may sit past
    the largest cutoff."""
    item_ids = [f"i{i}" for i in range(draw(st.integers(0, 10)))]
    orders = draw(st.lists(
        st.lists(st.integers(0, len(item_ids) - 1), unique=True) if item_ids else st.just([]),
        max_size=5,
    ))
    query_ids = [f"q{i}" for i in range(len(orders))]
    scores = [
        float(-(position // 2)) for order in orders for position in range(len(order))
    ]
    run = Run(query_ids, item_ids, np.cumsum([0, *map(len, orders)]),
              [i for order in orders for i in order], scores)
    pool = st.sampled_from(item_ids + MISSING)
    qrels = {query_id: draw(st.sets(pool, max_size=4)) for query_id in query_ids}
    k_list = draw(st.lists(st.integers(1, len(item_ids) + 3), min_size=1, max_size=3))
    return run, qrels, tuple(k_list)


@PROPERTY_SETTINGS
@given(run_cases())
def test_run_arrays_score_as_the_ranking_scan(case):
    """``evaluate_run`` reads a run's arrays; over the run, over the run
    that ``Run.from_rankings`` makes of its rankings (its item numbers
    differ) and in ``reference_evaluate_run``'s scan the report bytes are
    the same."""
    run, qrels, k_list = case
    want = reference_evaluate_run(list(run), qrels, k_list).to_json_bytes()
    assert evaluate_run(run, qrels, k_list).to_json_bytes() == want
    assert evaluate_run(run_of(*run), qrels, k_list).to_json_bytes() == want


class TestInvariants:
    def test_single_relevant_mrr_equals_map(self, rng):
        for _ in range(100):
            order, _ = random_instance(rng)
            relevant = {order[int(rng.integers(0, len(order)))]}
            run = run_of(ranked("q", order))
            qrels = {"q": relevant}
            for k in (5, 10, 100):
                values = evaluate_run(run, qrels, (k,)).per_query["q"]
                assert values[f"MRR@{k}"] == values[f"MAP@{k}"]

    def test_single_relevant_orderings(self, rng):
        for _ in range(100):
            order, _ = random_instance(rng)
            relevant = {order[int(rng.integers(0, len(order)))]}
            run = run_of(ranked("q", order))
            qrels = {"q": relevant}
            values = evaluate_run(run, qrels, (10,)).per_query["q"]
            mrr, ndcg, hr = values["MRR@10"], values["NDCG@10"], values["HR@10"]
            assert hr >= mrr >= 0.0
            assert ndcg >= mrr  # 1/log2(r+1) >= 1/r for r >= 1

    def test_perfect_ranking_scores_one_everywhere(self):
        run = run_of(*(ranked(f"q{i}", [f"rel{i}", "x", "y"]) for i in range(5)))
        qrels = {f"q{i}": {f"rel{i}"} for i in range(5)}
        report = evaluate_run(run, qrels, k_list=(5, 10, 100))
        assert all(v == 1.0 for v in report.aggregate.values())

    def test_rank_based_only(self, rng):
        """Any positive monotone transform of the scores changes nothing."""
        for _ in range(50):
            order, relevant = random_instance(rng)
            scores = sorted(rng.uniform(0.1, 5.0, size=len(order)), reverse=True)
            raw = reference_ranked_list("q", list(zip(order, scores)))
            transformed = reference_ranked_list(
                "q", [(i, math.exp(3.0 * s) + 7.0) for i, s in zip(order, scores)]
            )
            qrels = {"q": relevant}
            a = evaluate_run(run_of(raw), qrels, (10,)).aggregate
            b = evaluate_run(run_of(transformed), qrels, (10,)).aggregate
            assert a == b

    def test_empty_ranked_list_scores_zero(self):
        run = run_of(ranked("q", []))
        report = evaluate_run(run, {"q": {"rel"}}, (5, 10))
        assert all(v == 0.0 for v in report.aggregate.values())

    def test_values_in_unit_interval_and_mean(self, rng):
        rankings = []
        qrels = {}
        for i in range(30):
            order, relevant = random_instance(rng)
            rankings.append(ranked(f"q{i}", order))
            qrels[f"q{i}"] = relevant
        report = evaluate_run(run_of(*rankings), qrels, (5, 10, 100))
        for name, value in report.aggregate.items():
            assert 0.0 <= value <= 1.0
            mean = math.fsum(report.per_query[q][name] for q in report.per_query) / 30
            assert value == pytest.approx(mean, abs=1e-12)

    def test_a_ranking_that_repeats_an_id_never_reaches_the_metrics(self):
        # Scored, this run would give MAP@5 = 2.0 and NDCG@5 = 1.63.
        with pytest.raises(ValueError, match=r"'q' repeats item ids: \['a'\]"):
            evaluate_run(run_of(RankedList("q", (("a", 1.0), ("a", 0.5), ("b", 0.1)))),
                         {"q": {"a"}}, (5,))
        with pytest.raises(ValueError, match=r"'q' repeats item ids: \['a'\]"):
            evaluate_run(Run(["q"], ("a", "b"), [0, 3], [0, 0, 1], [1.0, 0.5, 0.1]),
                         {"q": {"a"}}, (5,))

    def test_a_run_whose_item_ids_repeat_is_refused(self):
        # Matched by id, the hit of the second "a" would count as relevant;
        # matched by item number, it would not.
        # The run is refused when made, before it can be scored.
        with pytest.raises(ValueError, match=r"the run's item ids repeat: \['a'\]"):
            Run(["q"], ("a", "b", "a"), [0, 2], [2, 1], [1.0, 0.5])

    @pytest.mark.parametrize("query_ids, message", [
        (["q", "r", "q"], "query 'r' missing from qrels"),
        (["q", "q", "r"], "query 'q' is ranked twice in the run"),
    ])
    def test_query_errors_in_run_order(self, query_ids, message):
        run = Run(query_ids, ("a",), [0, 1, 1, 1], [0], [1.0])
        for evaluate, form in [
            (evaluate_run, run), (evaluate_run, run_of(*run)), (reference_evaluate_run, list(run)),
        ]:
            with pytest.raises(ValueError, match=message):
                evaluate(form, {"q": {"a"}}, (5,))


class TestReportPlumbing:
    def test_evaluate_run_metric_names(self):
        report = evaluate_run(run_of(ranked("q", ["a"])), {"q": {"a"}}, (5, 10, 100))
        assert "MRR@10" in report.aggregate
        assert "MAP@100" in report.aggregate
        assert "NDCG@10" in report.aggregate
        assert "HR@5" in report.aggregate
        assert report.query_count == 1

    def test_k_list_validation(self):
        with pytest.raises(ValueError):
            evaluate_run(run_of(), {}, ())
        with pytest.raises(ValueError):
            evaluate_run(run_of(), {}, (0,))

    def test_only_a_run_is_scored(self):
        with pytest.raises(TypeError, match=r"takes a run; Run\.from_rankings makes a run"):
            evaluate_run([ranked("q", ["a"])], {"q": {"a"}}, (5,))

    @pytest.mark.parametrize(
        "family", ["mrr_at_k", "map_at_k", "ndcg_at_k", "hit_rate_at_k"]
    )
    @pytest.mark.parametrize("k", [0, -1, True, 2.0, "5"])
    def test_family_cutoff_validation(self, family, k):
        label = {"mrr_at_k": "MRR", "map_at_k": "MAP", "ndcg_at_k": "NDCG",
                 "hit_rate_at_k": "HR"}[family]
        assert values_at(["a"], {"a"}, 5)[f"{label}@5"] == 1.0
        for k_list in ((k,), (5, k)):
            with pytest.raises(ValueError, match="cutoff must be >= 1"):
                evaluate_run(run_of(ranked("q", ["a"])), {"q": {"a"}}, k_list)

    def test_to_dict_has_display_column(self):
        report = evaluate_run(run_of(ranked("q", ["a", "b"])), {"q": {"b"}}, (10,))
        payload = report.to_dict()
        assert payload["aggregate_display"]["MRR@10"] == "0.5000"
        assert payload["aggregate"]["MRR@10"] == 0.5

    def test_json_bytes_deterministic(self):
        report = evaluate_run(run_of(ranked("q", ["a", "b"])), {"q": {"b"}}, (10,))
        assert report.to_json_bytes() == report.to_json_bytes()
