"""Self-contained HTML dashboard of one matrix run.

``python -m repro.workloads --dashboard FILE`` renders it from the
``{bench: BenchmarkResult}`` map the matrix returns.  One file, zero
external assets: inline CSS (light + dark via ``prefers-color-scheme``),
inline SVG bars, plain HTML tables.  Sections:

* stat tiles — benchmarks, run records and profiled ALAT sites;
* baseline vs speculative — per-benchmark delta table (cycle /
  data-access / load reductions, eviction and check-failure counts for
  the speculative run);
* ALAT site pressure — collisions + evictions per promotion site of the
  speculative run, one bar each (present when the run was
  site-profiled, as ``--dashboard`` runs are).

Colors follow the repo's dataviz conventions: one categorical blue for
the bars, text in ink tokens (never the series color), deltas in the
reserved good / critical steps with explicit signs so color never
carries meaning alone.
"""

from __future__ import annotations

import html as _html

_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --delta-good: #006300; --delta-bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --delta-good: #0ca30c; --delta-bad: #e66767;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 130px;
}
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { color: var(--ink-2); font-size: 12px; }
table {
  border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px;
}
th, td {
  padding: 5px 12px; text-align: right;
  font-variant-numeric: tabular-nums;
}
th {
  color: var(--ink-2); font-weight: 600; font-size: 12px;
  border-bottom: 1px solid var(--axis);
}
td:first-child, th:first-child { text-align: left; }
tr + tr td { border-top: 1px solid var(--grid); }
.good { color: var(--delta-good); }
.bad { color: var(--delta-bad); }
.muted { color: var(--ink-3); }
.legend { color: var(--ink-2); font-size: 12px; margin-top: 6px; }
footer { color: var(--ink-3); font-size: 12px; margin-top: 32px; }
"""


def _esc(value) -> str:
    return _html.escape(str(value), quote=True)


def _bar_svg(value: int, peak: int) -> str:
    """Inline 200x14 SVG bar scaled to the section peak, with a native
    ``<title>`` tooltip carrying the value."""
    filled = round(200 * value / peak, 1) if peak > 0 else 0.0
    return (
        f'<svg width="200" height="14" role="img" aria-label="{value:,}">'
        f"<title>{value:,}</title>"
        '<rect width="200" height="14" fill="var(--grid)"/>'
        f'<rect width="{filled}" height="14" fill="var(--series-1)"/></svg>'
    )


def _delta_td(pct: float) -> str:
    cls = "good" if pct > 0 else ("bad" if pct < 0 else "muted")
    return f'<td class="{cls}">{pct:+.2f}%</td>'


def _tile(value, key) -> str:
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(key)}</div></div>'
    )


def render_dashboard(results: dict) -> str:
    """The dashboard of ``{bench: BenchmarkResult}`` as one
    self-contained HTML string."""
    benches = sorted(results)
    sites = [
        (bench, site)
        for bench in benches
        for site in results[bench].speculative.record.get("sites", [])
    ]

    parts: list[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        "<title>ALAT speculation analytics</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>ALAT speculation analytics</h1>",
        '<p class="sub">one run of the benchmark matrix: the -O3 '
        "baseline vs profile-guided ALAT speculation</p>",
        '<div class="tiles">',
        _tile(len(benches), "benchmarks"),
        _tile(sum(len(results[b].modes) for b in benches), "run records"),
        _tile(len(sites), "ALAT sites"),
        "</div>",
    ]

    # -- baseline vs speculative delta table ----------------------------
    parts.append("<h2>Baseline vs speculative</h2>")
    parts.append(
        "<table><tr><th>benchmark</th><th>CPU cycles Δ</th>"
        "<th>data access Δ</th><th>retired loads Δ</th>"
        "<th>evictions</th><th>check failures</th><th>wall ms</th></tr>"
    )
    for bench in benches:
        r = results[bench]
        spec = r.speculative
        evictions = spec.record["metrics"].get("alat", {}).get(
            "capacity_evictions", 0
        )
        wall = spec.host_metrics.get("wall_ms")
        parts.append(
            f"<tr><td>{_esc(bench)}</td>"
            + _delta_td(r.cycle_reduction_pct)
            + _delta_td(r.data_access_reduction_pct)
            + _delta_td(r.load_reduction_pct)
            + f"<td>{evictions:,}</td>"
            + f"<td>{spec.counters.check_failures:,}</td>"
            + (f"<td>{wall:,.1f}</td>" if wall is not None
               else '<td class="muted">–</td>')
            + "</tr>"
        )
    parts.append("</table>")
    parts.append(
        '<p class="legend">Δ = percent reduction vs the -O3 baseline '
        "(positive = speculation wins); counters are simulated and "
        "deterministic, wall ms measures this harness.</p>"
    )

    # -- per-site pressure ----------------------------------------------
    if sites:
        pressure = [
            (s.get("collisions") or 0) + (s.get("evictions") or 0)
            for _, s in sites
        ]
        peak = max(pressure)
        parts.append("<h2>ALAT site pressure</h2>")
        parts.append(
            "<table><tr><th>bench · site (line)</th>"
            "<th>collisions + evictions</th><th></th></tr>"
        )
        for (bench, site), value in zip(sites, pressure):
            line = site.get("line")
            label = f"{bench} · {site.get('site', '?')}" + (
                f" (L{line})" if line else ""
            )
            parts.append(
                f"<tr><td>{_esc(label)}</td>"
                f"<td>{_bar_svg(value, peak)}</td><td>{value:,}</td></tr>"
            )
        parts.append("</table>")
        parts.append(
            '<p class="legend">bar = store collisions + capacity '
            "evictions at that promotion site in the speculative run, "
            f"scaled to the largest ({peak:,}).</p>"
        )

    parts.append(
        "<footer>Regenerate: <code>python -m repro.workloads "
        "--dashboard FILE</code>. Self-contained file: no scripts, no "
        "external assets.</footer></body></html>"
    )
    return "\n".join(parts)
