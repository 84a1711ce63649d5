"""Pins of every rule kernel the strategies lower.

Each key is ``scenario|query|transformation|sips``, over the scenarios
and SIPS of ``tests/test_rewriting_pins.py``; each value is the number
of kernels one ``run_strategy`` call lowers — the lower strata's and the
rewritten stratum's — and the first 16 hex digits of a SHA-256 over
their sorted ``repr(shape)``, ``repr(arguments)`` and generated
``source``, or the class name of the error the strategy raises.  The
values were recorded before the lowering walk was last optimised: any
change to a slot, level, test, head template, argument or rendered line
changes a pin.  No scenario scans a literal holding a constant or a
repeated variable; ``tests/test_kernel.py`` and ``tests/test_codegen.py``
cover those columns.
"""

import hashlib

from repro.core.strategy import run_strategy
from repro.engine import kernel as kernel_module

from .test_rewriting_pins import SIPS, _scenarios


def _kernel_pins(monkeypatch):
    lowered: list[str] = []
    generate = kernel_module.generate

    def recording_generate(shape, args):
        run, source, fresh = generate(shape, args)
        lowered.append(f"{shape!r}\n{args!r}\n{source}")
        return run, source, fresh

    monkeypatch.setattr(kernel_module, "generate", recording_generate)
    for scenario in _scenarios():
        for query in scenario.queries:
            for kind in ("alexander", "magic", "supplementary"):
                for name, sips in SIPS.items():
                    key = f"{scenario.name}|{query}|{kind}|{name}"
                    lowered.clear()
                    try:
                        run_strategy(kind, scenario.program, query, scenario.database, sips)
                    except Exception as error:  # pinned below by class name
                        yield key, type(error).__name__
                        continue
                    digest = hashlib.sha256("\0".join(sorted(lowered)).encode("utf-8"))
                    yield key, f"{len(lowered)}:{digest.hexdigest()[:16]}"


PINNED = {
    'ancestor-right-chain|anc(0, X)|alexander|ltr': '4:b4761dc8c14ed1e5',
    'ancestor-right-chain|anc(0, X)|alexander|mbf': '4:b4761dc8c14ed1e5',
    'ancestor-right-chain|anc(0, X)|magic|ltr': '3:44b2cfef5a5ad8a6',
    'ancestor-right-chain|anc(0, X)|magic|mbf': '3:44b2cfef5a5ad8a6',
    'ancestor-right-chain|anc(0, X)|supplementary|ltr': '4:9842badc6cb21591',
    'ancestor-right-chain|anc(0, X)|supplementary|mbf': '4:9842badc6cb21591',
    'ancestor-right-chain|anc(X, Y)|alexander|ltr': '8:3236c5f376a521ba',
    'ancestor-right-chain|anc(X, Y)|alexander|mbf': '8:3236c5f376a521ba',
    'ancestor-right-chain|anc(X, Y)|magic|ltr': '6:16166e5969200593',
    'ancestor-right-chain|anc(X, Y)|magic|mbf': '6:16166e5969200593',
    'ancestor-right-chain|anc(X, Y)|supplementary|ltr': '8:458f42f70c01e08c',
    'ancestor-right-chain|anc(X, Y)|supplementary|mbf': '8:458f42f70c01e08c',
    'ancestor-right-tree|anc(X, Y)|alexander|ltr': '8:3236c5f376a521ba',
    'ancestor-right-tree|anc(X, Y)|alexander|mbf': '8:3236c5f376a521ba',
    'ancestor-right-tree|anc(X, Y)|magic|ltr': '6:16166e5969200593',
    'ancestor-right-tree|anc(X, Y)|magic|mbf': '6:16166e5969200593',
    'ancestor-right-tree|anc(X, Y)|supplementary|ltr': '8:458f42f70c01e08c',
    'ancestor-right-tree|anc(X, Y)|supplementary|mbf': '8:458f42f70c01e08c',
    'ancestor-left-chain|anc(0, X)|alexander|ltr': '4:fa5ac4dc443eca6f',
    'ancestor-left-chain|anc(0, X)|alexander|mbf': '4:fa5ac4dc443eca6f',
    'ancestor-left-chain|anc(0, X)|magic|ltr': '3:95bcce4495e3b0d2',
    'ancestor-left-chain|anc(0, X)|magic|mbf': '3:95bcce4495e3b0d2',
    'ancestor-left-chain|anc(0, X)|supplementary|ltr': '4:b472c8d397610131',
    'ancestor-left-chain|anc(0, X)|supplementary|mbf': '4:b472c8d397610131',
    'ancestor-left-chain|anc(X, Y)|alexander|ltr': '4:cb9051fea14ca36c',
    'ancestor-left-chain|anc(X, Y)|alexander|mbf': '4:cb9051fea14ca36c',
    'ancestor-left-chain|anc(X, Y)|magic|ltr': '3:453b7a782b04976c',
    'ancestor-left-chain|anc(X, Y)|magic|mbf': '3:453b7a782b04976c',
    'ancestor-left-chain|anc(X, Y)|supplementary|ltr': '4:ce4297d2966fe5f7',
    'ancestor-left-chain|anc(X, Y)|supplementary|mbf': '4:ce4297d2966fe5f7',
    'ancestor-left-tree|anc(X, Y)|alexander|ltr': '4:cb9051fea14ca36c',
    'ancestor-left-tree|anc(X, Y)|alexander|mbf': '4:cb9051fea14ca36c',
    'ancestor-left-tree|anc(X, Y)|magic|ltr': '3:453b7a782b04976c',
    'ancestor-left-tree|anc(X, Y)|magic|mbf': '3:453b7a782b04976c',
    'ancestor-left-tree|anc(X, Y)|supplementary|ltr': '4:ce4297d2966fe5f7',
    'ancestor-left-tree|anc(X, Y)|supplementary|mbf': '4:ce4297d2966fe5f7',
    'ancestor-nonlinear-chain|anc(0, X)|alexander|ltr': '5:f2ec8428e6b0baed',
    'ancestor-nonlinear-chain|anc(0, X)|alexander|mbf': '5:f2ec8428e6b0baed',
    'ancestor-nonlinear-chain|anc(0, X)|magic|ltr': '4:5b142e6642994ed3',
    'ancestor-nonlinear-chain|anc(0, X)|magic|mbf': '4:5b142e6642994ed3',
    'ancestor-nonlinear-chain|anc(0, X)|supplementary|ltr': '5:aa8e79adfeb676a0',
    'ancestor-nonlinear-chain|anc(0, X)|supplementary|mbf': '5:aa8e79adfeb676a0',
    'ancestor-nonlinear-chain|anc(X, Y)|alexander|ltr': '10:88b780891ee04869',
    'ancestor-nonlinear-chain|anc(X, Y)|alexander|mbf': '10:88b780891ee04869',
    'ancestor-nonlinear-chain|anc(X, Y)|magic|ltr': '8:a749328e3dd46d8a',
    'ancestor-nonlinear-chain|anc(X, Y)|magic|mbf': '8:a749328e3dd46d8a',
    'ancestor-nonlinear-chain|anc(X, Y)|supplementary|ltr': '10:86b87a80482b1a01',
    'ancestor-nonlinear-chain|anc(X, Y)|supplementary|mbf': '10:86b87a80482b1a01',
    'ancestor-nonlinear-tree|anc(X, Y)|alexander|ltr': '10:88b780891ee04869',
    'ancestor-nonlinear-tree|anc(X, Y)|alexander|mbf': '10:88b780891ee04869',
    'ancestor-nonlinear-tree|anc(X, Y)|magic|ltr': '8:a749328e3dd46d8a',
    'ancestor-nonlinear-tree|anc(X, Y)|magic|mbf': '8:a749328e3dd46d8a',
    'ancestor-nonlinear-tree|anc(X, Y)|supplementary|ltr': '10:86b87a80482b1a01',
    'ancestor-nonlinear-tree|anc(X, Y)|supplementary|mbf': '10:86b87a80482b1a01',
    'ancestor-double-chain|anc(0, X)|alexander|ltr': '7:d5f6718a2739631c',
    'ancestor-double-chain|anc(0, X)|alexander|mbf': '7:d5f6718a2739631c',
    'ancestor-double-chain|anc(0, X)|magic|ltr': '5:45d949f194799ae5',
    'ancestor-double-chain|anc(0, X)|magic|mbf': '5:45d949f194799ae5',
    'ancestor-double-chain|anc(0, X)|supplementary|ltr': '7:5ce66e45a033ae67',
    'ancestor-double-chain|anc(0, X)|supplementary|mbf': '7:5ce66e45a033ae67',
    'ancestor-double-chain|anc(X, Y)|alexander|ltr': '14:3f3d279e571de9f2',
    'ancestor-double-chain|anc(X, Y)|alexander|mbf': '14:3f3d279e571de9f2',
    'ancestor-double-chain|anc(X, Y)|magic|ltr': '10:0fb8cefc4cdb6b42',
    'ancestor-double-chain|anc(X, Y)|magic|mbf': '10:0fb8cefc4cdb6b42',
    'ancestor-double-chain|anc(X, Y)|supplementary|ltr': '14:7cdfe180c4b27b80',
    'ancestor-double-chain|anc(X, Y)|supplementary|mbf': '14:7cdfe180c4b27b80',
    'ancestor-double-tree|anc(X, Y)|alexander|ltr': '14:3f3d279e571de9f2',
    'ancestor-double-tree|anc(X, Y)|alexander|mbf': '14:3f3d279e571de9f2',
    'ancestor-double-tree|anc(X, Y)|magic|ltr': '10:0fb8cefc4cdb6b42',
    'ancestor-double-tree|anc(X, Y)|magic|mbf': '10:0fb8cefc4cdb6b42',
    'ancestor-double-tree|anc(X, Y)|supplementary|ltr': '14:7cdfe180c4b27b80',
    'ancestor-double-tree|anc(X, Y)|supplementary|mbf': '14:7cdfe180c4b27b80',
    'same-generation-d3b2|sg(7, X)|alexander|ltr': '5:e50a37c7fc124c93',
    'same-generation-d3b2|sg(7, X)|alexander|mbf': '5:e50a37c7fc124c93',
    'same-generation-d3b2|sg(7, X)|magic|ltr': '3:a44393bdc0d5838c',
    'same-generation-d3b2|sg(7, X)|magic|mbf': '3:a44393bdc0d5838c',
    'same-generation-d3b2|sg(7, X)|supplementary|ltr': '5:ed34818a5e6cd9d5',
    'same-generation-d3b2|sg(7, X)|supplementary|mbf': '5:ed34818a5e6cd9d5',
    'same-generation-d3b2|sg(X, Y)|alexander|ltr': '10:5a513a071ba37f13',
    'same-generation-d3b2|sg(X, Y)|alexander|mbf': '10:5a513a071ba37f13',
    'same-generation-d3b2|sg(X, Y)|magic|ltr': '6:21fc4d574d643b6a',
    'same-generation-d3b2|sg(X, Y)|magic|mbf': '6:21fc4d574d643b6a',
    'same-generation-d3b2|sg(X, Y)|supplementary|ltr': '10:f5ba847ffd55ded3',
    'same-generation-d3b2|sg(X, Y)|supplementary|mbf': '10:f5ba847ffd55ded3',
    'ancestor-nonlinear-cycle|anc(0, X)|alexander|ltr': '5:f2ec8428e6b0baed',
    'ancestor-nonlinear-cycle|anc(0, X)|alexander|mbf': '5:f2ec8428e6b0baed',
    'ancestor-nonlinear-cycle|anc(0, X)|magic|ltr': '4:5b142e6642994ed3',
    'ancestor-nonlinear-cycle|anc(0, X)|magic|mbf': '4:5b142e6642994ed3',
    'ancestor-nonlinear-cycle|anc(0, X)|supplementary|ltr': '5:aa8e79adfeb676a0',
    'ancestor-nonlinear-cycle|anc(0, X)|supplementary|mbf': '5:aa8e79adfeb676a0',
    'ancestor-nonlinear-cycle|anc(X, Y)|alexander|ltr': '10:88b780891ee04869',
    'ancestor-nonlinear-cycle|anc(X, Y)|alexander|mbf': '10:88b780891ee04869',
    'ancestor-nonlinear-cycle|anc(X, Y)|magic|ltr': '8:a749328e3dd46d8a',
    'ancestor-nonlinear-cycle|anc(X, Y)|magic|mbf': '8:a749328e3dd46d8a',
    'ancestor-nonlinear-cycle|anc(X, Y)|supplementary|ltr': '10:86b87a80482b1a01',
    'ancestor-nonlinear-cycle|anc(X, Y)|supplementary|mbf': '10:86b87a80482b1a01',
    'unreachable-random|unreach(0, X)|alexander|ltr': '5:08dc9041fa6cf1ab',
    'unreachable-random|unreach(0, X)|alexander|mbf': '5:08dc9041fa6cf1ab',
    'unreachable-random|unreach(0, X)|magic|ltr': '3:ffa17dcc6b42451c',
    'unreachable-random|unreach(0, X)|magic|mbf': '3:ffa17dcc6b42451c',
    'unreachable-random|unreach(0, X)|supplementary|ltr': '5:320d2a789c91c5b8',
    'unreachable-random|unreach(0, X)|supplementary|mbf': '5:320d2a789c91c5b8',
    'unreachable-random|unreach(X, Y)|alexander|ltr': '5:361bdb8f200b0fb1',
    'unreachable-random|unreach(X, Y)|alexander|mbf': '5:361bdb8f200b0fb1',
    'unreachable-random|unreach(X, Y)|magic|ltr': '3:138d5801d5f697e3',
    'unreachable-random|unreach(X, Y)|magic|mbf': '3:138d5801d5f697e3',
    'unreachable-random|unreach(X, Y)|supplementary|ltr': '5:32b527841fe37866',
    'unreachable-random|unreach(X, Y)|supplementary|mbf': '5:32b527841fe37866',
    'bom-d3b2|clean(0, X)|alexander|ltr': '6:8f63eec06d610f64',
    'bom-d3b2|clean(0, X)|alexander|mbf': '6:8f63eec06d610f64',
    'bom-d3b2|clean(0, X)|magic|ltr': '5:9d2f41d086370137',
    'bom-d3b2|clean(0, X)|magic|mbf': '5:9d2f41d086370137',
    'bom-d3b2|clean(0, X)|supplementary|ltr': '6:cb9321933fc6d3c6',
    'bom-d3b2|clean(0, X)|supplementary|mbf': '6:cb9321933fc6d3c6',
    'bom-d3b2|tainted(X)|alexander|ltr': '12:74b40448f55611c3',
    'bom-d3b2|tainted(X)|alexander|mbf': '12:74b40448f55611c3',
    'bom-d3b2|tainted(X)|magic|ltr': '9:cf852113dd7d5f97',
    'bom-d3b2|tainted(X)|magic|mbf': '9:cf852113dd7d5f97',
    'bom-d3b2|tainted(X)|supplementary|ltr': '12:2364e3b82010321d',
    'bom-d3b2|tainted(X)|supplementary|mbf': '12:2364e3b82010321d',
    'bom-d3b2|clean(X, Y)|alexander|ltr': '6:36f47b68eb66f3ac',
    'bom-d3b2|clean(X, Y)|alexander|mbf': '6:36f47b68eb66f3ac',
    'bom-d3b2|clean(X, Y)|magic|ltr': '5:f425985f69aad761',
    'bom-d3b2|clean(X, Y)|magic|mbf': '5:f425985f69aad761',
    'bom-d3b2|clean(X, Y)|supplementary|ltr': '6:b31fdf958081e724',
    'bom-d3b2|clean(X, Y)|supplementary|mbf': '6:b31fdf958081e724',
    'bounded-reach-chain-b4|low(0, Y)|alexander|ltr': '6:74b807612507623c',
    'bounded-reach-chain-b4|low(0, Y)|alexander|mbf': '6:74b807612507623c',
    'bounded-reach-chain-b4|low(0, Y)|magic|ltr': '3:13e4489ce84cf7fe',
    'bounded-reach-chain-b4|low(0, Y)|magic|mbf': '3:13e4489ce84cf7fe',
    'bounded-reach-chain-b4|low(0, Y)|supplementary|ltr': '6:1122cb0df2cb99e3',
    'bounded-reach-chain-b4|low(0, Y)|supplementary|mbf': '6:1122cb0df2cb99e3',
    'bounded-reach-chain-b4|low(X, Y)|alexander|ltr': '12:1d2433567a81dbe2',
    'bounded-reach-chain-b4|low(X, Y)|alexander|mbf': '12:1d2433567a81dbe2',
    'bounded-reach-chain-b4|low(X, Y)|magic|ltr': '6:a696dc035e3aad91',
    'bounded-reach-chain-b4|low(X, Y)|magic|mbf': '6:a696dc035e3aad91',
    'bounded-reach-chain-b4|low(X, Y)|supplementary|ltr': '12:f91520d5c8610a8c',
    'bounded-reach-chain-b4|low(X, Y)|supplementary|mbf': '12:f91520d5c8610a8c',
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


def test_every_lowering_is_pinned(monkeypatch):
    assert dict(_kernel_pins(monkeypatch)) == PINNED
