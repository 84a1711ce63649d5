"""Fact storage: indexed in-memory relations, the extensional database,
and file interchange."""

from .database import Database
from .io import (
    check_arities,
    load_delimited,
    load_facts,
    load_source,
    save_delimited,
    save_facts,
)
from .nx_bridge import closure_via_networkx, relation_from_graph, relation_to_graph
from .relation import Relation

__all__ = [
    "Database",
    "Relation",
    "load_source",
    "check_arities",
    "load_facts",
    "save_facts",
    "load_delimited",
    "save_delimited",
    "relation_from_graph",
    "relation_to_graph",
    "closure_via_networkx",
]
