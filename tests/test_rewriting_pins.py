"""Pins of every rewriting the transformation strategies produce.

Each key is ``scenario|query|transformation|sips``; each value the first
16 hex digits of the rewritten program's :attr:`Program.fingerprint`
(``None`` for an extensional query, which is not rewritten), or the
class name of the error the strategy raises.  The values were recorded
before the rewriting code was last optimised: a change to any rule,
name or argument layout changes a fingerprint.
"""

import pytest

from repro.core.strategy import run_strategy
from repro.transform.common import adorned_name, prefixed_name
from repro.transform.sips import left_to_right, most_bound_first
from repro.workloads import programs as w

SIPS = {"ltr": left_to_right, "mbf": most_bound_first}


def _scenarios():
    for variant in ("right", "left", "nonlinear", "double"):
        yield w.ancestor("chain", variant, n=5)
        yield w.ancestor("tree", variant, source=None, depth=2)
    yield w.same_generation(3, 2)
    yield w.nonlinear_tc("cycle", n=4)
    yield w.unreachable("random", n=6, seed=3)
    yield w.bill_of_materials(3, 2)
    yield w.bounded_reachability("chain", n=8)
    yield w.win_game("chain", n=5)


def _rewritings():
    for scenario in _scenarios():
        for query in scenario.queries:
            for kind in ("alexander", "magic", "supplementary"):
                for name, sips in SIPS.items():
                    key = f"{scenario.name}|{query}|{kind}|{name}"
                    try:
                        transformed = run_strategy(
                            kind, scenario.program, query, scenario.database, sips
                        ).transformed
                    except Exception as error:  # pinned below by class name
                        yield key, type(error).__name__
                        continue
                    if transformed is None:
                        yield key, None
                    else:
                        yield key, transformed.program.fingerprint[:16]


PINNED = {
    'ancestor-double-chain|anc(0, X)|alexander|ltr': 'd37fa614f9b37757',
    'ancestor-double-chain|anc(0, X)|alexander|mbf': 'd37fa614f9b37757',
    'ancestor-double-chain|anc(0, X)|magic|ltr': '109f7a0173d81d9e',
    'ancestor-double-chain|anc(0, X)|magic|mbf': '109f7a0173d81d9e',
    'ancestor-double-chain|anc(0, X)|supplementary|ltr': 'cea66cc06319eefa',
    'ancestor-double-chain|anc(0, X)|supplementary|mbf': 'cea66cc06319eefa',
    'ancestor-double-chain|anc(X, Y)|alexander|ltr': 'fd0e3543225f377e',
    'ancestor-double-chain|anc(X, Y)|alexander|mbf': 'fd0e3543225f377e',
    'ancestor-double-chain|anc(X, Y)|magic|ltr': '7e2ed42cccd2dc26',
    'ancestor-double-chain|anc(X, Y)|magic|mbf': '7e2ed42cccd2dc26',
    'ancestor-double-chain|anc(X, Y)|supplementary|ltr': 'f23002d4966454b4',
    'ancestor-double-chain|anc(X, Y)|supplementary|mbf': 'f23002d4966454b4',
    'ancestor-double-tree|anc(X, Y)|alexander|ltr': 'fd0e3543225f377e',
    'ancestor-double-tree|anc(X, Y)|alexander|mbf': 'fd0e3543225f377e',
    'ancestor-double-tree|anc(X, Y)|magic|ltr': '7e2ed42cccd2dc26',
    'ancestor-double-tree|anc(X, Y)|magic|mbf': '7e2ed42cccd2dc26',
    'ancestor-double-tree|anc(X, Y)|supplementary|ltr': 'f23002d4966454b4',
    'ancestor-double-tree|anc(X, Y)|supplementary|mbf': 'f23002d4966454b4',
    'ancestor-left-chain|anc(0, X)|alexander|ltr': '25fb97585848d0e1',
    'ancestor-left-chain|anc(0, X)|alexander|mbf': '25fb97585848d0e1',
    'ancestor-left-chain|anc(0, X)|magic|ltr': 'c6d24b2a9b236ab8',
    'ancestor-left-chain|anc(0, X)|magic|mbf': 'c6d24b2a9b236ab8',
    'ancestor-left-chain|anc(0, X)|supplementary|ltr': '5fded730ca7e3eeb',
    'ancestor-left-chain|anc(0, X)|supplementary|mbf': '5fded730ca7e3eeb',
    'ancestor-left-chain|anc(X, Y)|alexander|ltr': '4396a4a24269d00d',
    'ancestor-left-chain|anc(X, Y)|alexander|mbf': '4396a4a24269d00d',
    'ancestor-left-chain|anc(X, Y)|magic|ltr': '77dc646dd7ded0b0',
    'ancestor-left-chain|anc(X, Y)|magic|mbf': '77dc646dd7ded0b0',
    'ancestor-left-chain|anc(X, Y)|supplementary|ltr': '9b06af423c19a3b6',
    'ancestor-left-chain|anc(X, Y)|supplementary|mbf': '9b06af423c19a3b6',
    'ancestor-left-tree|anc(X, Y)|alexander|ltr': '4396a4a24269d00d',
    'ancestor-left-tree|anc(X, Y)|alexander|mbf': '4396a4a24269d00d',
    'ancestor-left-tree|anc(X, Y)|magic|ltr': '77dc646dd7ded0b0',
    'ancestor-left-tree|anc(X, Y)|magic|mbf': '77dc646dd7ded0b0',
    'ancestor-left-tree|anc(X, Y)|supplementary|ltr': '9b06af423c19a3b6',
    'ancestor-left-tree|anc(X, Y)|supplementary|mbf': '9b06af423c19a3b6',
    'ancestor-nonlinear-chain|anc(0, X)|alexander|ltr': 'ec56e5a23f21d2e2',
    'ancestor-nonlinear-chain|anc(0, X)|alexander|mbf': 'ec56e5a23f21d2e2',
    'ancestor-nonlinear-chain|anc(0, X)|magic|ltr': '55b696e26e4a3a93',
    'ancestor-nonlinear-chain|anc(0, X)|magic|mbf': '55b696e26e4a3a93',
    'ancestor-nonlinear-chain|anc(0, X)|supplementary|ltr': '5be1081278418d9e',
    'ancestor-nonlinear-chain|anc(0, X)|supplementary|mbf': '5be1081278418d9e',
    'ancestor-nonlinear-chain|anc(X, Y)|alexander|ltr': 'ef6fe0ccaa79ed8e',
    'ancestor-nonlinear-chain|anc(X, Y)|alexander|mbf': 'ef6fe0ccaa79ed8e',
    'ancestor-nonlinear-chain|anc(X, Y)|magic|ltr': '9d63034238cfd7af',
    'ancestor-nonlinear-chain|anc(X, Y)|magic|mbf': '9d63034238cfd7af',
    'ancestor-nonlinear-chain|anc(X, Y)|supplementary|ltr': 'c258afa23a164b0a',
    'ancestor-nonlinear-chain|anc(X, Y)|supplementary|mbf': 'c258afa23a164b0a',
    'ancestor-nonlinear-cycle|anc(0, X)|alexander|ltr': 'ec56e5a23f21d2e2',
    'ancestor-nonlinear-cycle|anc(0, X)|alexander|mbf': 'ec56e5a23f21d2e2',
    'ancestor-nonlinear-cycle|anc(0, X)|magic|ltr': '55b696e26e4a3a93',
    'ancestor-nonlinear-cycle|anc(0, X)|magic|mbf': '55b696e26e4a3a93',
    'ancestor-nonlinear-cycle|anc(0, X)|supplementary|ltr': '5be1081278418d9e',
    'ancestor-nonlinear-cycle|anc(0, X)|supplementary|mbf': '5be1081278418d9e',
    'ancestor-nonlinear-cycle|anc(X, Y)|alexander|ltr': 'ef6fe0ccaa79ed8e',
    'ancestor-nonlinear-cycle|anc(X, Y)|alexander|mbf': 'ef6fe0ccaa79ed8e',
    'ancestor-nonlinear-cycle|anc(X, Y)|magic|ltr': '9d63034238cfd7af',
    'ancestor-nonlinear-cycle|anc(X, Y)|magic|mbf': '9d63034238cfd7af',
    'ancestor-nonlinear-cycle|anc(X, Y)|supplementary|ltr': 'c258afa23a164b0a',
    'ancestor-nonlinear-cycle|anc(X, Y)|supplementary|mbf': 'c258afa23a164b0a',
    'ancestor-nonlinear-tree|anc(X, Y)|alexander|ltr': 'ef6fe0ccaa79ed8e',
    'ancestor-nonlinear-tree|anc(X, Y)|alexander|mbf': 'ef6fe0ccaa79ed8e',
    'ancestor-nonlinear-tree|anc(X, Y)|magic|ltr': '9d63034238cfd7af',
    'ancestor-nonlinear-tree|anc(X, Y)|magic|mbf': '9d63034238cfd7af',
    'ancestor-nonlinear-tree|anc(X, Y)|supplementary|ltr': 'c258afa23a164b0a',
    'ancestor-nonlinear-tree|anc(X, Y)|supplementary|mbf': 'c258afa23a164b0a',
    'ancestor-right-chain|anc(0, X)|alexander|ltr': '7dbda23529995e13',
    'ancestor-right-chain|anc(0, X)|alexander|mbf': '7dbda23529995e13',
    'ancestor-right-chain|anc(0, X)|magic|ltr': '6a8048f5adc258ee',
    'ancestor-right-chain|anc(0, X)|magic|mbf': '6a8048f5adc258ee',
    'ancestor-right-chain|anc(0, X)|supplementary|ltr': '569f720a122fdcad',
    'ancestor-right-chain|anc(0, X)|supplementary|mbf': '569f720a122fdcad',
    'ancestor-right-chain|anc(X, Y)|alexander|ltr': '3438e389154161da',
    'ancestor-right-chain|anc(X, Y)|alexander|mbf': '3438e389154161da',
    'ancestor-right-chain|anc(X, Y)|magic|ltr': '70fd74a584f7403c',
    'ancestor-right-chain|anc(X, Y)|magic|mbf': '70fd74a584f7403c',
    'ancestor-right-chain|anc(X, Y)|supplementary|ltr': '5a607b8e2de326a5',
    'ancestor-right-chain|anc(X, Y)|supplementary|mbf': '5a607b8e2de326a5',
    'ancestor-right-tree|anc(X, Y)|alexander|ltr': '3438e389154161da',
    'ancestor-right-tree|anc(X, Y)|alexander|mbf': '3438e389154161da',
    'ancestor-right-tree|anc(X, Y)|magic|ltr': '70fd74a584f7403c',
    'ancestor-right-tree|anc(X, Y)|magic|mbf': '70fd74a584f7403c',
    'ancestor-right-tree|anc(X, Y)|supplementary|ltr': '5a607b8e2de326a5',
    'ancestor-right-tree|anc(X, Y)|supplementary|mbf': '5a607b8e2de326a5',
    'bom-d3b2|clean(0, X)|alexander|ltr': '61df43b1aea7d640',
    'bom-d3b2|clean(0, X)|alexander|mbf': '61df43b1aea7d640',
    'bom-d3b2|clean(0, X)|magic|ltr': 'ac646e6d38ac32c6',
    'bom-d3b2|clean(0, X)|magic|mbf': 'ac646e6d38ac32c6',
    'bom-d3b2|clean(0, X)|supplementary|ltr': 'a21d7a8ced75d24f',
    'bom-d3b2|clean(0, X)|supplementary|mbf': 'a21d7a8ced75d24f',
    'bom-d3b2|clean(X, Y)|alexander|ltr': '22ae858b835c6549',
    'bom-d3b2|clean(X, Y)|alexander|mbf': '22ae858b835c6549',
    'bom-d3b2|clean(X, Y)|magic|ltr': '694a1b844a7b1846',
    'bom-d3b2|clean(X, Y)|magic|mbf': '694a1b844a7b1846',
    'bom-d3b2|clean(X, Y)|supplementary|ltr': '3831f50a91d75f19',
    'bom-d3b2|clean(X, Y)|supplementary|mbf': '3831f50a91d75f19',
    'bom-d3b2|tainted(X)|alexander|ltr': '0e8ea7d8e46854a6',
    'bom-d3b2|tainted(X)|alexander|mbf': '0e8ea7d8e46854a6',
    'bom-d3b2|tainted(X)|magic|ltr': '33c2fa21375a5e4e',
    'bom-d3b2|tainted(X)|magic|mbf': '33c2fa21375a5e4e',
    'bom-d3b2|tainted(X)|supplementary|ltr': '6812dd2674845da0',
    'bom-d3b2|tainted(X)|supplementary|mbf': '6812dd2674845da0',
    'bounded-reach-chain-b4|low(0, Y)|alexander|ltr': 'b25a3e9b95e0ce2d',
    'bounded-reach-chain-b4|low(0, Y)|alexander|mbf': 'b25a3e9b95e0ce2d',
    'bounded-reach-chain-b4|low(0, Y)|magic|ltr': 'fa2f98ee878a342e',
    'bounded-reach-chain-b4|low(0, Y)|magic|mbf': 'fa2f98ee878a342e',
    'bounded-reach-chain-b4|low(0, Y)|supplementary|ltr': '6c1ef43e0d294e99',
    'bounded-reach-chain-b4|low(0, Y)|supplementary|mbf': '6c1ef43e0d294e99',
    'bounded-reach-chain-b4|low(X, Y)|alexander|ltr': '668f70450caf9791',
    'bounded-reach-chain-b4|low(X, Y)|alexander|mbf': '668f70450caf9791',
    'bounded-reach-chain-b4|low(X, Y)|magic|ltr': 'e91d9907c31bb0a1',
    'bounded-reach-chain-b4|low(X, Y)|magic|mbf': 'e91d9907c31bb0a1',
    'bounded-reach-chain-b4|low(X, Y)|supplementary|ltr': 'b92108a18f3503b9',
    'bounded-reach-chain-b4|low(X, Y)|supplementary|mbf': 'b92108a18f3503b9',
    'same-generation-d3b2|sg(7, X)|alexander|ltr': '0f3f5494fbe41b35',
    'same-generation-d3b2|sg(7, X)|alexander|mbf': '0f3f5494fbe41b35',
    'same-generation-d3b2|sg(7, X)|magic|ltr': '0ceae81738c8c85a',
    'same-generation-d3b2|sg(7, X)|magic|mbf': '0ceae81738c8c85a',
    'same-generation-d3b2|sg(7, X)|supplementary|ltr': '4c7f79cedded02e9',
    'same-generation-d3b2|sg(7, X)|supplementary|mbf': '4c7f79cedded02e9',
    'same-generation-d3b2|sg(X, Y)|alexander|ltr': 'b5f65325f4c27200',
    'same-generation-d3b2|sg(X, Y)|alexander|mbf': 'b5f65325f4c27200',
    'same-generation-d3b2|sg(X, Y)|magic|ltr': '6c9873aad3a39d28',
    'same-generation-d3b2|sg(X, Y)|magic|mbf': '6c9873aad3a39d28',
    'same-generation-d3b2|sg(X, Y)|supplementary|ltr': '8bc6d9d6314daeab',
    'same-generation-d3b2|sg(X, Y)|supplementary|mbf': '8bc6d9d6314daeab',
    'unreachable-random|unreach(0, X)|alexander|ltr': 'cc546026e3b76361',
    'unreachable-random|unreach(0, X)|alexander|mbf': 'cc546026e3b76361',
    'unreachable-random|unreach(0, X)|magic|ltr': 'bef65d046fd5ed20',
    'unreachable-random|unreach(0, X)|magic|mbf': 'bef65d046fd5ed20',
    'unreachable-random|unreach(0, X)|supplementary|ltr': '27da9bf18b49a40e',
    'unreachable-random|unreach(0, X)|supplementary|mbf': '27da9bf18b49a40e',
    'unreachable-random|unreach(X, Y)|alexander|ltr': '9a5c922e241fd880',
    'unreachable-random|unreach(X, Y)|alexander|mbf': '9a5c922e241fd880',
    'unreachable-random|unreach(X, Y)|magic|ltr': '1896dc30fc4ab350',
    'unreachable-random|unreach(X, Y)|magic|mbf': '1896dc30fc4ab350',
    'unreachable-random|unreach(X, Y)|supplementary|ltr': '1a467d5ccf37432e',
    'unreachable-random|unreach(X, Y)|supplementary|mbf': '1a467d5ccf37432e',
    'win-chain|win(0)|alexander|ltr': 'StratificationError',
    'win-chain|win(0)|alexander|mbf': 'StratificationError',
    'win-chain|win(0)|magic|ltr': 'StratificationError',
    'win-chain|win(0)|magic|mbf': 'StratificationError',
    'win-chain|win(0)|supplementary|ltr': 'StratificationError',
    'win-chain|win(0)|supplementary|mbf': 'StratificationError',
    'win-chain|win(X)|alexander|ltr': 'StratificationError',
    'win-chain|win(X)|alexander|mbf': 'StratificationError',
    'win-chain|win(X)|magic|ltr': 'StratificationError',
    'win-chain|win(X)|magic|mbf': 'StratificationError',
    'win-chain|win(X)|supplementary|ltr': 'StratificationError',
    'win-chain|win(X)|supplementary|mbf': 'StratificationError',
}


def test_every_rewriting_is_pinned():
    assert dict(_rewritings()) == PINNED


class TestFreshNames:
    def test_a_free_name_is_used_as_is(self):
        assert prefixed_name("call", "anc__bf", {"anc__bf"}) == "call__anc__bf"
        assert adorned_name("anc", "bf", {"anc"}) == "anc__bf"

    def test_a_taken_name_grows_underscores_until_free(self):
        taken = {"call__anc__bf", "call__anc__bf_", "anc__bf", "anc__bf_", "anc__bf__"}
        assert prefixed_name("call", "anc__bf", taken) == "call__anc__bf__"
        assert adorned_name("anc", "bf", taken) == "anc__bf___"

    def test_a_base_already_ending_in_underscore(self):
        taken = {"magic__p_", "magic__p__"}
        assert prefixed_name("magic", "p_", taken) == "magic__p___"
        assert adorned_name("p_", "", set()) == "p___0"
        assert adorned_name("p_", "", {"p___0"}) == "p___0_"
        assert adorned_name("p_", "", {"p___0", "p___0_"}) == "p___0__"

    def test_taken_is_probed_not_changed(self):
        taken = frozenset({"call__p"})
        assert prefixed_name("call", "p", taken) == "call__p_"
        assert taken == {"call__p"}

    @pytest.mark.parametrize("taken", [[], ("x",), {"y": 1}])
    def test_any_container_will_do(self, taken):
        assert prefixed_name("ans", "q__b", taken) == "ans__q__b"
