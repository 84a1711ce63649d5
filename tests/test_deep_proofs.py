"""Proofs as deep as the chain that derived them.

A right-linear ancestor proof over an n-node chain nests n - 1 rule
nodes, so deriving, building, measuring and rendering it must not use
one Python frame per level: ``why`` on a 1,000-node chain has to work
from the library and from the command line.
"""

import pytest

from repro.cli import main
from repro.core.engine import Engine
from repro.datalog.parser import parse_program, parse_query
from repro.engine.provenance import format_proof, traced_fixpoint

RECURSIVE = "anc(X, Y) :- par(X, Z), anc(Z, Y)."
BASE = "anc(X, Y) :- par(X, Y)."


def chain_source(nodes: int) -> str:
    facts = "".join(f"par({i}, {i + 1}).\n" for i in range(nodes - 1))
    return f"{BASE}\n{RECURSIVE}\n{facts}"


def expected_chain_proof(nodes: int) -> str:
    """The proof of ``anc(0, nodes - 1)``: one recursive step per edge,
    each with its ``par`` leaf first, ending in the base rule."""
    last = nodes - 1
    lines = []
    for i in range(last - 1):
        pad = "  " * i
        lines.append(f"{pad}anc({i}, {last})   [rule: {RECURSIVE}]")
        lines.append(f"{pad}  par({i}, {i + 1})   [fact]")
    pad = "  " * (last - 1)
    lines.append(f"{pad}anc({last - 1}, {last})   [rule: {BASE}]")
    lines.append(f"{pad}  par({last - 1}, {last})   [fact]")
    return "\n".join(lines)


def test_a_450_node_chain_renders_as_before():
    text = Engine.from_source(chain_source(450)).why("anc(0, 449)")
    assert text == expected_chain_proof(450)


def test_a_thousand_node_chain_has_its_full_depth_proof():
    program = parse_program(chain_source(1000))
    traced = traced_fixpoint(program)
    proof = traced.proof(parse_query("anc(0, 999)"))
    # 999 anc nodes on the spine, the last one's par leaf below them.
    assert proof.depth() == 1000
    assert proof.size() == 2 * 999
    assert format_proof(proof) == expected_chain_proof(1000)


def test_why_on_a_thousand_node_chain_exits_zero(tmp_path, capsys):
    path = tmp_path / "chain.dl"
    path.write_text(chain_source(1000))
    code = main(["why", str(path), "anc(0, 999)"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert captured.out.rstrip("\n") == expected_chain_proof(1000)


@pytest.mark.parametrize("nodes", [2, 3])
def test_short_chains(nodes):
    text = Engine.from_source(chain_source(nodes)).why(f"anc(0, {nodes - 1})")
    assert text == expected_chain_proof(nodes)
