"""Registry exporters: JSONL snapshots and Prometheus text format.

Two offline formats for one registry:

* **JSONL** — one JSON object per instrument (the ``to_dict`` form),
  written atomically next to span logs and benchmark results; read back
  with :func:`read_metrics_jsonl`.
* **Prometheus text exposition** — ``# TYPE`` headers, label-formatted
  sample lines, cumulative ``_bucket{le=...}`` series plus ``_sum`` and
  ``_count`` for histograms.  :func:`parse_prometheus_text` parses the
  subset this module emits, which is what the round-trip property test
  exercises (and what a scrape endpoint would serve).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry


def write_metrics_jsonl(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write one JSON object per instrument; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in registry.snapshot():
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return path


def read_metrics_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load an exported metrics snapshot back as a list of dicts."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# -- Prometheus text format ---------------------------------------------
def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _format_le(boundary: float) -> str:
    return "+Inf" if math.isinf(boundary) else repr(float(boundary))


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()
    for instrument in registry.instruments():
        if instrument.name not in typed:
            typed.add(instrument.name)
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        labels = instrument.label_dict
        if instrument.kind in ("counter", "gauge"):
            lines.append(
                f"{instrument.name}{_format_labels(labels)} "
                f"{_format_value(instrument.value)}"
            )
        else:  # histogram
            for boundary, cumulative in instrument.cumulative():
                le = _format_labels(labels, {"le": _format_le(boundary)})
                lines.append(f"{instrument.name}_bucket{le} {cumulative}")
            lines.append(
                f"{instrument.name}_sum{_format_labels(labels)} "
                f"{_format_value(instrument.sum)}"
            )
            lines.append(
                f"{instrument.name}_count{_format_labels(labels)} {instrument.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus_text(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write the Prometheus text rendering to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus_text(registry), encoding="utf-8")
    return path


def _parse_labels(body: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq].strip().lstrip(",").strip()
        assert body[eq + 1] == '"', f"malformed label body: {body!r}"
        j = eq + 2
        value: list[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                escaped = body[j + 1]
                value.append({"n": "\n", "\\": "\\", '"': '"'}[escaped])
                j += 2
            else:
                value.append(body[j])
                j += 1
        labels[key] = "".join(value)
        i = j + 1
    return labels


def parse_prometheus_text(text: str) -> dict[str, Any]:
    """Parse the subset of the text format emitted by this module.

    Returns ``{"types": {name: kind}, "samples": {(name, labelset): value}}``
    where ``labelset`` is the sorted ``(key, value)`` tuple (including any
    ``le`` label on histogram bucket series).  Series names keep their
    ``_bucket``/``_sum``/``_count`` suffixes, exactly as exposed.
    """
    types: dict[str, str] = {}
    samples: dict[tuple[str, tuple], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        name_and_labels, _, raw_value = line.rpartition(" ")
        if "{" in name_and_labels:
            name, _, rest = name_and_labels.partition("{")
            labels = _parse_labels(rest.rstrip("}"))
        else:
            name, labels = name_and_labels, {}
        value = float("inf") if raw_value == "+Inf" else float(raw_value)
        samples[(name, tuple(sorted(labels.items())))] = value
    return {"types": types, "samples": samples}
