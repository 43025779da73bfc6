"""Render the layer tables of traced runs as Markdown.

Usage, after ``run.py --trace 1`` runs::

    python3 perfbench/layer_report.py .perfbench_out/*-layers.json > perfbench/LAYERS.md
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

from layers import LAYERS  # run as a script: perfbench/ is on the path


def render(paths: List[str]) -> str:
    tables = [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]
    lines = ["# Per-layer self time", ""]
    lines.append(
        "Traced runs of `perfbench/run.py --trace 1` (see `README.md` for "
        "what is wrapped).  Self time per layer as a share of the traced "
        "pass's wall time; `unattributed` is time no wrapped call covers."
    )
    lines.append("")
    hosts = {json.dumps(t["host"], sort_keys=True) for t in tables}
    for host in sorted(hosts):
        record = json.loads(host)
        lines.append(
            f"Host: {record['nproc']} CPU(s), Python {record['python']}, "
            f"{record['platform']}, git {record['git_sha'] or 'n/a'}, "
            f"src sha256 {record['src_sha256'][:16]}…"
        )
    lines.append("")
    header = "| workload | seed | wall s | " + " | ".join(LAYERS)
    header += " | unattributed | tracing overhead |"
    lines.append(header)
    lines.append("|" + "---|" * (len(LAYERS) + 5))
    for table in tables:
        shares = " | ".join(
            f"{table['layers'][layer]['share_pct']:.1f}%" for layer in LAYERS
        )
        lines.append(
            f"| {table['workload']} | {table['seed']} | {table['wall_s']:.2f} | "
            f"{shares} | {table['unattributed_pct']:.1f}% | "
            f"{table['trace_overhead_pct']:+.1f}% |"
        )
    for table in tables:
        lines += ["", f"## {table['workload']} (seed {table['seed']})", ""]
        lines.append("| span | layer | calls | self s | total s |")
        lines.append("|---|---|---|---|---|")
        spans = sorted(table["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, span in spans:
            layer = name.split(".", 1)[0]
            lines.append(
                f"| `{name}` | {layer} | {span['calls']} | "
                f"{span['self_s']:.4f} | {span['total_s']:.4f} |"
            )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render(sys.argv[1:]))
