"""Cell-by-cell reference for the traceability matrices.

`_matrix` and `render_trace_matrix` are the original ones: one lambda call
and one list-membership test per cell, against lookup dicts that keep the
last declaration of each id. They serve only as the oracle that
`stpalint.report.render_trace_matrix`, which builds each row from its links,
is compared with.
"""

from __future__ import annotations

from stpalint.model import StpaModel
from stpalint.report import _md_row


def _matrix(title: str, row_ids: list[str], col_ids: list[str], linked) -> list[str]:
    lines = [f"## {title}", ""]
    lines.append(_md_row([""] + col_ids))
    lines.append(_md_row(["---"] * (len(col_ids) + 1)))
    for row_id in row_ids:
        cells = ["x" if linked(row_id, col_id) else "" for col_id in col_ids]
        lines.append(_md_row([row_id] + cells))
    lines.append("")
    return lines


def render_trace_matrix(model: StpaModel) -> str:
    """Markdown traceability matrices across all four analysis steps."""
    hazards = {hz.id: hz for hz in model.hazards}
    lines = ["# Traceability", ""]
    lines += _matrix(
        "Hazards to losses",
        [hz.id for hz in model.hazards],
        [loss.id for loss in model.losses],
        lambda h, l: l in hazards[h].leads_to,
    )
    uca_hazards = {u.id: u.hazards for u in model.ucas}
    lines += _matrix(
        "Hazards to unsafe control actions",
        [hz.id for hz in model.hazards],
        [u.id for u in model.ucas],
        lambda h, u: h in uca_hazards[u],
    )
    cf_ucas = {cf.id: cf.ucas for cf in model.causal_factors}
    lines += _matrix(
        "Unsafe control actions to causal factors",
        [u.id for u in model.ucas],
        [cf.id for cf in model.causal_factors],
        lambda u, c: u in cf_ucas[c],
    )
    constraint_hazards = {sc.id: sc.mitigates for sc in model.constraints}
    lines += _matrix(
        "Hazards to constraints",
        [hz.id for hz in model.hazards],
        [sc.id for sc in model.constraints],
        lambda h, s: h in constraint_hazards[s],
    )
    return "\n".join(lines)
