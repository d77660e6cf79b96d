"""``--seed`` is the only source of inputs: same seed, same bytes."""

import itertools
import pickle

import pytest

from repro.boutique.payment import luhn_valid
from repro.serde.compact import CODEC
from repro.codegen.schema import schema_of
from repro.boutique.types import HomePage

from benchmarks.perf import workloads
from benchmarks.perf.workloads import SELFCHECK, WORKLOADS


def _first(workload, seed, caller, n=40):
    workloads._page_pool.cache_clear()  # a second build, not the cached object
    return list(itertools.islice(workload.inputs(seed, caller), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = WORKLOADS[name]
    for caller in range(min(workload.callers, 3)):
        a, b = _first(workload, 11, caller), _first(workload, 11, caller)
        assert pickle.dumps(a) == pickle.dumps(b)
        assert pickle.dumps(a) != pickle.dumps(_first(workload, 12, caller))
    if workload.callers > 1:
        assert _first(workload, 11, 0) != _first(workload, 11, 1)


def test_struct_page_is_about_12_kb_on_the_wire():
    page = _first(WORKLOADS["struct_d4"], 5, 0, n=1)[0]
    assert len(page.products) == 64
    size = len(CODEC.encode(schema_of(HomePage), page))
    assert 10_000 < size < 14_000


def test_journey_cards_pass_the_payment_check_and_products_differ():
    for journey in _first(WORKLOADS["boutique_c1"], 3, 0, n=200):
        assert luhn_valid(journey.card.number.replace("-", ""))
        assert journey.card.number.startswith("4")
        assert journey.first[0] != journey.second[0]


def test_selfcheck_expected_failures_is_inclusion_exclusion():
    values = list(itertools.islice(SELFCHECK.inputs(0, 0), 1000))
    assert values[:3] == [1, 2, 3]
    brute = sum(1 for v in values if v % 10 == 0 or v % 17 == 0)
    assert SELFCHECK.expected_failures(1000) == brute
