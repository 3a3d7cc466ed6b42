"""The convergence map of two-generator dihedral markings.

Three families of markings of the finite dihedral groups exist on two
generators: two reflections (family A), a reflection then a rotation
(family B), and a rotation then a reflection (family Bbar).  Each
family accumulates on the matching marking of the infinite dihedral
group, and the order-4 group carries a single marking where all three
families collapse.  The emitter lays this out as a graph: convergence
edges annotated with computed agreement radii, and every node pair
certified distinct either by involution patterns or by an explicit
separating word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .abelian import canonical_invariant_factors
from .classify import reflection_index_set
from .dihedral import GenDihedralGroup
from .topology import MarkedGroup, _compare

FAMILIES = ("A", "B", "Bbar")


def family_marking(family: str, n) -> MarkedGroup:
    """The family-F marking of the dihedral group of order 2n (n=None: infinite)."""
    g = GenDihedralGroup(canonical_invariant_factors([n]))
    unit = g.base.from_coordinates([1] * g.base.rank)
    flip, ref, rot = g.reflection(g.base.identity()), g.reflection(unit), g.rotation(unit)
    families = {"A": (flip, ref), "B": (flip, rot), "Bbar": (rot, flip)}
    if family not in families:
        raise ValueError(f"unknown family {family!r}")
    return MarkedGroup(g, families[family])


@dataclass(frozen=True)
class _Node:
    node_id: str
    kind: str  # 'limit' | 'finite'
    family: str
    label: str
    marked: MarkedGroup


def _build_nodes(n_range) -> list[_Node]:
    nodes = []
    for family in FAMILIES:
        nodes.append(
            _Node(f"{family}inf", "limit", family, f"{family}inf", family_marking(family, None))
        )
        for n in n_range:
            nodes.append(
                _Node(
                    f"{family}{2 * n}",
                    "finite",
                    family,
                    f"{family}{2 * n}",
                    family_marking(family, n),
                )
            )
    nodes.append(_Node("D4", "finite", "A=B=Bbar", "A4=B4=Bbar4", family_marking("A", 2)))
    return nodes


def emit_closure_map(n_range=range(3, 9), r_max: int = 8) -> tuple[str, str]:
    """Emit the map as (JSON text, DOT text); byte-stable for a fixed range.

    Edge radii are fresh ball comparisons capped at r_max; distinctness
    certificates are recomputed separating words (or distinct involution
    patterns) for every node pair.
    """
    n_range = list(n_range)
    if not n_range or min(n_range) < 3:
        raise ValueError("the range must contain integers >= 3")
    nodes = _build_nodes(n_range)
    by_id = {node.node_id: node for node in nodes}
    patterns = [sorted(reflection_index_set(node.marked.generators)) for node in nodes]

    edges = []
    for family in FAMILIES:
        limit = by_id[f"{family}inf"]
        for n in n_range:
            member = by_id[f"{family}{2 * n}"]
            radius, witness = _compare(member.marked, limit.marked, r_max, "auto")
            edges.append(
                {
                    "source": member.node_id,
                    "target": limit.node_id,
                    "agreement_radius": radius,
                    "exact": witness is not None,
                }
            )

    certificates = []
    word_window = 2 * (max(n_range) + 1)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i], nodes[j]
            ia, ib = patterns[i], patterns[j]
            entry = {"pair": [a.node_id, b.node_id]}
            if ia != ib:
                entry["certificate"] = "involution-pattern"
                entry["patterns"] = [ia, ib]
            else:
                radius, witness = _compare(a.marked, b.marked, word_window, "auto")
                if witness is None:
                    raise AssertionError(
                        f"nodes {a.node_id} and {b.node_id} are not distinct "
                        f"within radius {word_window}"
                    )
                entry["certificate"] = "separating-word"
                entry["word"] = str(witness)
                entry["relation_in"] = (
                    a.node_id if a.marked.is_relation(witness) else b.node_id
                )
            certificates.append(entry)

    payload = {
        "arity": 2,
        "range": [min(n_range), max(n_range)],
        "r_max": r_max,
        "accumulation_points": sum(1 for node in nodes if node.kind == "limit"),
        "nodes": [
            {
                "id": node.node_id,
                "kind": node.kind,
                "family": node.family,
                "label": node.label,
                "group": str(node.marked.group),
                "marking": str(node.marked),
                "order": None
                if node.kind == "limit"
                else int(node.marked.group.order()),
                "involutions": pattern,
            }
            for node, pattern in zip(nodes, patterns)
        ],
        "edges": edges,
        "distinctness": certificates,
    }
    json_text = json.dumps(payload, indent=2) + "\n"

    lines = ["digraph dihedral_closure {", "  rankdir=LR;"]
    for node in nodes:
        shape = "doublecircle" if node.kind == "limit" else "circle"
        lines.append(f'  "{node.node_id}" [shape={shape}, label="{node.label}"];')
    for edge in edges:
        mark = "=" if edge["exact"] else ">="
        lines.append(
            f'  "{edge["source"]}" -> "{edge["target"]}" '
            f'[label="r{mark}{edge["agreement_radius"]}"];'
        )
    lines.append("}")
    dot_text = "\n".join(lines) + "\n"
    return json_text, dot_text
