"""Self-contained static HTML dashboard for one run's JSONL log.

``render_dashboard`` turns a parsed telemetry record list (a ``run
--jsonl`` export or a fleet-merged log) into a single HTML file with
inline CSS and inline SVG charts — no scripts, no external assets, so
the file opens identically from a laptop, an artifact store, or an
air-gapped machine, and its bytes are a pure function of the records
(the golden-snapshot test depends on that: no wall clock, no
randomness).

Rendered surfaces: stat tiles (quanta, violations, retries, drops),
the measured-vs-predicted p99 timeline, the power timeline with the
prediction error band, accuracy-drift events, and per-unit decision
throughput.  Worker identities are deliberately absent from merged
logs (they would break byte-identical ``--jobs`` output), so per-worker
health lives in the live ``--watch`` view, not here.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["render_dashboard"]

# Chart geometry (one shared frame so the page reads as a set).
_W, _H = 640.0, 220.0
_ML, _MR, _MT, _MB = 48.0, 12.0, 12.0, 26.0


def _fmt(value: float, digits: int = 2) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.{digits}f}"


def _esc(text: Any) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _scale(lo: float, hi: float, a: float, b: float):
    span = hi - lo if hi > lo else 1.0

    def to(value: float) -> float:
        return a + (value - lo) / span * (b - a)

    return to


def _axis(y_to, y_lo: float, y_hi: float, x_label: str) -> List[str]:
    parts: List[str] = []
    for i in range(5):
        value = y_lo + (y_hi - y_lo) * i / 4.0
        y = y_to(value)
        cls = "baseline" if i == 0 else "gridline"
        parts.append(
            f'<line class="{cls}" x1="{_ML:.1f}" y1="{y:.1f}" '
            f'x2="{_W - _MR:.1f}" y2="{y:.1f}"/>'
        )
        parts.append(
            f'<text class="tick" x="{_ML - 6:.1f}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_fmt(value, 1)}</text>'
        )
    parts.append(
        f'<text class="tick" x="{_W - _MR:.1f}" y="{_H - 6:.1f}" '
        f'text-anchor="end">{_esc(x_label)}</text>'
    )
    return parts


def _line_chart(
    title: str,
    unit_label: str,
    series: Sequence[Tuple[str, str, List[Tuple[float, float]]]],
    band: Optional[Tuple[List[Tuple[float, float]],
                         List[Tuple[float, float]]]] = None,
    note: str = "",
) -> str:
    """One single-axis SVG line chart; series = (name, css-class, pts)."""
    populated = [pts for _n, _c, pts in series if pts]
    if not populated:
        return (
            f"<figure><figcaption><strong>{_esc(title)}</strong>"
            "</figcaption><p class=\"empty\">no decision records in this "
            "log</p></figure>"
        )
    xs = [x for pts in populated for x, _y in pts]
    ys = [y for pts in populated for _x, y in pts]
    if band:
        ys += [y for _x, y in band[0]] + [y for _x, y in band[1]]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.08 if max(ys) > 0 else 1.0
    x_to = _scale(x_lo, x_hi, _ML, _W - _MR)
    y_to = _scale(y_lo, y_hi, _H - _MB, _MT)
    parts = [
        f'<svg viewBox="0 0 {_W:.0f} {_H:.0f}" role="img" '
        f'aria-label="{_esc(title)}">'
    ]
    parts += _axis(y_to, y_lo, y_hi, "quantum")
    if band:
        upper, lower = band
        ring = " ".join(
            f"{x_to(x):.1f},{y_to(y):.1f}" for x, y in upper
        ) + " " + " ".join(
            f"{x_to(x):.1f},{y_to(y):.1f}" for x, y in reversed(lower)
        )
        parts.append(f'<polygon class="band" points="{ring}"/>')
    for name, css, pts in series:
        if not pts:
            continue
        scaled = [(x_to(x), y_to(y)) for x, y in pts]
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in scaled)
        parts.append(f'<polyline class="line {css}" points="{coords}"/>')
        for (sx, sy), (x, y) in zip(scaled, pts):
            parts.append(
                f'<circle class="hit" cx="{sx:.1f}" cy="{sy:.1f}" r="7">'
                f"<title>{_esc(name)} @ quantum {x:g}: "
                f"{_fmt(y)} {_esc(unit_label)}</title></circle>"
            )
    parts.append("</svg>")
    legend = "".join(
        f'<span class="key"><span class="swatch {css}"></span>'
        f"{_esc(name)}</span>"
        for name, css, pts in series if pts
    )
    caption = (
        f"<figcaption><strong>{_esc(title)}</strong> "
        f'<span class="unit">({_esc(unit_label)})</span>'
        f'<span class="legend">{legend}</span></figcaption>'
    )
    note_html = f'<p class="note">{_esc(note)}</p>' if note else ""
    return f"<figure>{caption}{''.join(parts)}{note_html}</figure>"


def _bar_chart(title: str, unit_label: str,
               items: Sequence[Tuple[str, float]]) -> str:
    """Horizontal bars with direct value labels (one per unit)."""
    if not items:
        return ""
    row_h = 26.0
    height = _MT + row_h * len(items) + 8
    top = max(value for _n, value in items) or 1.0
    x_to = _scale(0.0, top * 1.15, 200.0, _W - _MR)
    parts = [
        f'<svg viewBox="0 0 {_W:.0f} {height:.0f}" role="img" '
        f'aria-label="{_esc(title)}">'
    ]
    for i, (name, value) in enumerate(items):
        y = _MT + i * row_h
        parts.append(
            f'<text class="label" x="192" y="{y + 14:.1f}" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
        parts.append(
            f'<rect class="bar" x="200" y="{y:.1f}" '
            f'width="{x_to(value) - 200.0:.1f}" height="16" rx="2">'
            f"<title>{_esc(name)}: {value:g} {_esc(unit_label)}</title>"
            "</rect>"
        )
        parts.append(
            f'<text class="value" x="{x_to(value) + 6:.1f}" '
            f'y="{y + 13:.1f}">{value:g}</text>'
        )
    parts.append("</svg>")
    return (
        f"<figure><figcaption><strong>{_esc(title)}</strong> "
        f'<span class="unit">({_esc(unit_label)})</span></figcaption>'
        f"{''.join(parts)}</figure>"
    )


def _tile(label: str, value: Any, status: str = "") -> str:
    cls = f"tile {status}".strip()
    return (
        f'<div class="{cls}"><div class="tile-value">{_esc(value)}</div>'
        f'<div class="tile-label">{_esc(label)}</div></div>'
    )


_CSS = """
:root { color-scheme: light; }
body.viz-root {
  margin: 0; padding: 24px;
  background: #f9f9f7; color: #0b0b0b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  --surface-1: #fcfcfb; --ink-1: #0b0b0b; --ink-2: #52514e;
  --muted: #898781; --gridline: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --critical: #d03b3b; --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  body.viz-root {
    background: #0d0d0d; color: #ffffff;
    --surface-1: #1a1a19; --ink-1: #ffffff; --ink-2: #c3c2b7;
    --gridline: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --ring: rgba(255,255,255,0.10);
  }
}
main { max-width: 720px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
.subtitle { color: var(--ink-2); font-size: 13px; margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 0 0 20px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 10px 14px; min-width: 96px;
}
.tile-value { font-size: 24px; }
.tile.alert .tile-value { color: var(--critical); }
.tile-label { color: var(--ink-2); font-size: 12px; }
figure {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 14px; margin: 0 0 20px;
}
figcaption { font-size: 13px; margin-bottom: 8px; }
figcaption .unit, .note { color: var(--ink-2); font-weight: normal; }
.legend { float: right; }
.key { margin-left: 12px; color: var(--ink-2); font-size: 12px; }
.swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 4px;
}
.swatch.s1 { background: var(--series-1); }
.swatch.s2 { background: var(--series-2); }
svg { width: 100%; height: auto; display: block; }
.gridline { stroke: var(--gridline); stroke-width: 1; }
.baseline { stroke: var(--baseline); stroke-width: 1; }
.tick, .label, .value { fill: var(--muted); font-size: 11px;
  font-variant-numeric: tabular-nums; }
.label, .value { fill: var(--ink-2); }
.line { fill: none; stroke-width: 2; stroke-linejoin: round; }
.line.s1 { stroke: var(--series-1); }
.line.s2 { stroke: var(--series-2); stroke-dasharray: 5 3; }
.band { fill: var(--series-1); opacity: 0.12; stroke: none; }
.bar { fill: var(--series-1); }
.hit { fill: transparent; }
.empty, .note { font-size: 12px; margin: 6px 0 0; }
table { border-collapse: collapse; font-size: 12px; width: 100%; }
th, td { text-align: left; padding: 3px 10px 3px 0;
  border-bottom: 1px solid var(--gridline); }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
"""


def render_dashboard(records: Iterable[Dict],
                     title: str = "repro run dashboard") -> str:
    """One run's JSONL records as a self-contained HTML page.

    Pure function of ``records`` — same log in, same bytes out.
    """
    records = list(records)
    decisions = [r for r in records if r.get("type") == "decision"]
    counters: Dict[str, float] = {}
    for rec in records:
        if rec.get("type") == "counter":
            counters[rec["name"]] = (
                counters.get(rec["name"], 0) + rec["value"]
            )
    drift = [
        r for r in records
        if r.get("type") == "instant" and "drift" in r.get("name", "")
    ]
    units = sorted({
        r["unit"] for r in records if r.get("unit") is not None
    })

    def numeric(value) -> bool:
        return isinstance(value, (int, float)) and value > 0

    measured_p99 = [
        (i, rec["measured_p99_s"][0] * 1e3)
        for i, rec in enumerate(decisions)
        if rec.get("measured_p99_s") and numeric(rec["measured_p99_s"][0])
    ]
    predicted_p99 = [
        (i, rec["predicted_p99_s"][0] * 1e3)
        for i, rec in enumerate(decisions)
        if rec.get("predicted_p99_s") and numeric(rec["predicted_p99_s"][0])
    ]
    measured_power = [
        (i, rec["measured_power_w"])
        for i, rec in enumerate(decisions)
        if numeric(rec.get("measured_power_w"))
    ]
    predicted_power = [
        (i, rec["predicted_power_w"])
        for i, rec in enumerate(decisions)
        if numeric(rec.get("predicted_power_w"))
    ]
    # The prediction error band spans predicted..measured wherever both
    # exist for the same quantum.
    power_by_i = dict(measured_power)
    band_pairs = [
        (i, p, power_by_i[i]) for i, p in predicted_power
        if i in power_by_i
    ]
    band = None
    if band_pairs:
        band = (
            [(i, max(p, m)) for i, p, m in band_pairs],
            [(i, min(p, m)) for i, p, m in band_pairs],
        )

    per_unit_decisions = [
        (unit, float(sum(
            1 for rec in decisions if rec.get("unit") == unit
        )))
        for unit in units
    ]
    per_unit_decisions = [(u, n) for u, n in per_unit_decisions if n > 0]

    qos_violations = int(counters.get("harness.qos_violations", 0))
    power_violations = int(counters.get("harness.power_violations", 0))
    degradations = int(counters.get("controller.degradation.rungs", 0))
    retries = int(counters.get("fleet.retries", 0))
    fallbacks = int(counters.get("fleet.serial_fallbacks", 0))
    dropped = int(counters.get("live.dropped_events", 0))

    tiles = [
        _tile("decision quanta", len(decisions)),
        _tile("QoS violations", qos_violations,
              "alert" if qos_violations else ""),
        _tile("power violations", power_violations,
              "alert" if power_violations else ""),
        _tile("degraded decisions", degradations,
              "alert" if degradations else ""),
        _tile("drift events", len(drift), "alert" if drift else ""),
        _tile("fleet retries", retries, "alert" if retries else ""),
        _tile("serial fallbacks", fallbacks),
        _tile("dropped live events", dropped, "alert" if dropped else ""),
    ]

    p99_chart = _line_chart(
        "Tail latency per quantum", "ms p99",
        [
            ("measured", "s1", [(float(x), y) for x, y in measured_p99]),
            ("predicted", "s2", [(float(x), y) for x, y in predicted_p99]),
        ],
    )
    power_chart = _line_chart(
        "Chip power per quantum", "W",
        [
            ("measured", "s1", [(float(x), y) for x, y in measured_power]),
            ("predicted", "s2",
             [(float(x), y) for x, y in predicted_power]),
        ],
        band=(
            ([(float(x), y) for x, y in band[0]],
             [(float(x), y) for x, y in band[1]]) if band else None
        ),
        note="shaded band spans predicted-to-measured power "
             "(the per-quantum prediction error)",
    )
    unit_chart = _bar_chart(
        "Per-unit decision throughput", "decision quanta",
        per_unit_decisions,
    )

    drift_rows = "".join(
        "<tr><td>{name}</td><td>{detail}</td></tr>".format(
            name=_esc(rec.get("name", "")),
            detail=_esc(", ".join(
                f"{key}={val}"
                for key, val in sorted((rec.get("args") or {}).items())
            ) or "-"),
        )
        for rec in drift
    )
    drift_html = (
        "<figure><figcaption><strong>Accuracy drift events</strong>"
        "</figcaption><table><tr><th>event</th><th>detail</th></tr>"
        f"{drift_rows}</table></figure>"
        if drift else ""
    )
    counter_rows = "".join(
        f"<tr><td>{_esc(name)}</td>"
        f'<td class="num">{counters[name]:g}</td></tr>'
        for name in sorted(counters)
    )
    counters_html = (
        "<figure><figcaption><strong>Run counters</strong></figcaption>"
        "<table><tr><th>counter</th><th>value</th></tr>"
        f"{counter_rows}</table></figure>"
        if counters else ""
    )
    subtitle = (
        f"{len(decisions)} decision quanta · "
        f"{len(units) or 1} unit(s) · {len(records)} telemetry records"
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
        '<meta name="viewport" '
        'content="width=device-width, initial-scale=1"/>\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n"
        '<body class="viz-root">\n<main>\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="subtitle">{_esc(subtitle)}</p>\n'
        f'<section class="tiles">{"".join(tiles)}</section>\n'
        f"{p99_chart}\n{power_chart}\n{unit_chart}\n"
        f"{drift_html}\n{counters_html}\n"
        "</main>\n</body>\n</html>\n"
    )
