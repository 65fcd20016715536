"""Aggregate benchmark outputs into a single report.

``build_report`` collects the ``benchmarks/results/*.csv`` files written
by the benchmark suite and renders one Markdown document (RESULTS.md)
with every regenerated table/figure, in the paper's order — the
machine-written companion to the hand-written EXPERIMENTS.md.  The
system-extension benchmarks that persist JSON instead of CSV
(``BENCH_engine.json`` kernels, ``BENCH_serve.json`` serving) get their
own rendered sections, so regenerating the report never drops them.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

#: Display order and titles, mirroring the paper's evaluation section.
REPORT_SECTIONS: tuple[tuple[str, str], ...] = (
    ("fig01_motivation", "Figure 1 — refinement dominates C2LSH response time"),
    ("fig02_popularity", "Figure 2 — query-popularity power law"),
    ("fig08_policy", "Figure 8 — HFF vs LRU caching policy"),
    ("fig09_ordering", "Figure 9 — dataset file ordering"),
    ("tbl03_categories", "Table 3 — histogram categories"),
    ("fig10_cva", "Figure 10 — C-VA vs HC-D"),
    ("fig11_pruning", "Figure 11 — early pruning power"),
    ("fig12_costmodel", "Figure 12 — cost model accuracy"),
    ("tbl04_refinement", "Table 4 — refinement time by method"),
    ("fig13_cachesize", "Figure 13 — effect of cache size"),
    ("fig14_k", "Figure 14 — effect of result size k"),
    ("fig15_tau", "Figure 15 — effect of code length tau"),
    ("fig16_exact", "Figure 16 — exact kNN indexes"),
    ("appB_width", "Appendix B — bucket width analysis"),
    ("abl_qr", "Ablation — F' construction"),
    ("abl_lemma3", "Ablation — Lemma-3 cutoff"),
    ("abl_zipf", "Ablation — workload skew"),
    ("abl_resultcache", "Ablation — point vs result caching"),
    ("abl_pq", "Ablation — bound-giving product quantization"),
    ("abl_eager", "Ablation — footnote-6 eager miss fetching"),
    ("ext_join", "Extension — cached kNN join"),
)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open() as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        padded = list(row) + [""] * (len(headers) - len(row))
        lines.append("| " + " | ".join(str(c) for c in padded) + " |")
    return "\n".join(lines)


def _kernel_section(path: Path) -> str | None:
    """Render the bound-kernel comparison from ``BENCH_engine.json``."""
    payload = json.loads(path.read_text())
    parts = []
    kernels = payload.get("kernels", {})
    runs = kernels.get("runs", {})
    if runs:
        rows = [
            [kernel, f"{run['queries_per_s']:.1f}",
             f"{run['speedup_vs_decode']:.2f}x"]
            for kernel, run in runs.items()
        ]
        parts.append(
            "`search_many`, answers byte-equal across kernels "
            f"(tau={kernels.get('tau', '?')}):\n\n"
            + _markdown_table(["kernel", "q/s", "speedup vs decode"], rows)
        )
        if "native_unavailable" in kernels:
            parts.append(f"\n_native: {kernels['native_unavailable']}_")
    if "per_query" in payload and "batched" in payload:
        parts.append(
            f"\nEngine per-query "
            f"{payload['per_query']['queries_per_s']:.1f} q/s vs batched "
            f"{payload['batched']['queries_per_s']:.1f} q/s "
            f"({payload['speedup']:.1f}x)."
        )
    return "\n".join(parts) if parts else None


def _serve_section(path: Path) -> str | None:
    """Render the serving-layer results from ``BENCH_serve.json``."""
    payload = json.loads(path.read_text())
    saturating = payload.get("saturating", {})
    curve = payload.get("load_curve", [])
    parts = []
    if saturating:
        rows = [
            [label, f"{run['achieved_qps']:.1f}",
             f"{run['latency_p50_ms']:.1f}", f"{run['latency_p99_ms']:.1f}",
             f"{run['mean_batch_size']:.1f}"]
            for label, run in saturating.items()
        ]
        parts.append(
            "Saturating offered load through the `Server` queue "
            "(micro-batching speedup "
            f"{payload.get('microbatch_speedup', 0.0):.1f}x):\n\n"
            + _markdown_table(
                ["config", "q/s", "p50 ms", "p99 ms", "mean batch"], rows
            )
        )
    if curve:
        rows = [
            [f"{p['offered_fraction']:.2f}", f"{p['offered_qps']:.1f}",
             f"{p['achieved_qps']:.1f}", f"{p['latency_p50_ms']:.1f}",
             f"{p['latency_p99_ms']:.1f}", f"{p['mean_batch_size']:.1f}"]
            for p in curve
        ]
        parts.append(
            "\nOpen-loop latency vs offered load (fractions of "
            "saturation capacity; 0 q/s offered = unpaced):\n\n"
            + _markdown_table(
                ["load", "offered q/s", "achieved q/s",
                 "p50 ms", "p99 ms", "mean batch"], rows
            )
        )
    return "\n".join(parts) if parts else None


#: JSON-backed extension sections appended after the paper's tables.
JSON_SECTIONS: tuple[tuple[str, str, object], ...] = (
    ("BENCH_engine.json", "Extension — bound kernels", _kernel_section),
    ("BENCH_serve.json", "Extension — serving layer", _serve_section),
)


def build_report(
    results_dir: str | Path, output: str | Path | None = None
) -> str:
    """Render all available result CSVs into one Markdown report.

    Args:
        results_dir: the ``benchmarks/results`` directory.
        output: optional path to also write the report to.

    Returns:
        The Markdown text.  Sections whose CSV is missing are listed as
        "not yet run".
    """
    results_dir = Path(results_dir)
    parts = [
        "# Benchmark results",
        "",
        "Regenerated tables and figures (see EXPERIMENTS.md for the "
        "paper-vs-measured discussion). Rebuild with "
        "`pytest benchmarks/ --benchmark-only`.",
    ]
    missing = []
    for name, title in REPORT_SECTIONS:
        csv_path = results_dir / f"{name}.csv"
        parts.append(f"\n## {title}\n")
        if not csv_path.exists():
            parts.append("_not yet run_")
            missing.append(name)
            continue
        headers, rows = _read_csv(csv_path)
        parts.append(_markdown_table(headers, rows))
    for filename, title, render in JSON_SECTIONS:
        json_path = results_dir / filename
        if not json_path.exists():
            continue
        section = render(json_path)
        if section:
            parts.append(f"\n## {title} ({filename})\n")
            parts.append(section)
    if missing:
        parts.append(
            "\n---\n_missing: " + ", ".join(missing) + "_"
        )
    text = "\n".join(parts) + "\n"
    if output is not None:
        Path(output).write_text(text)
    return text
