"""Report bundles: run JSON, reliability/histogram CSVs, SVG diagrams, manifest.

All emitted bytes are deterministic for fixed inputs: floats in CSVs use
repr (exact round-trip), SVG coordinates use 6 significant digits, and JSON
documents are dumped with sorted keys. The run JSON's wall-clock field is the
one volatile value; the manifest therefore records a second, stable digest of
the run JSON with timing removed.
"""

import hashlib
import json
import os
from pathlib import Path

from .metrics import record_doc

RUN_SCHEMA_VERSION = 2
MANIFEST_SCHEMA_VERSION = 1

RUN_JSON = "run.json"
REPORT_JSON = "report.json"
RELIABILITY_CSV = "reliability.csv"
HISTOGRAM_CSV = "confidence_histogram.csv"
RELIABILITY_SVG = "reliability.svg"
HISTOGRAM_SVG = "confidence_histogram.svg"
MANIFEST_JSON = "manifest.json"
CHECKPOINT_JSON = "checkpoint.json"


def fmt_sig(value):
    """Fixed six-significant-digit formatting for printed metrics and SVG."""
    return f"{value:.6g}"


def dumps_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sha256_hex(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _csv_text(header, rows):
    return "\n".join([header] + [",".join(map(_csv_cell, row)) for row in rows]) + "\n"


def export_reliability_rows(bins):
    """One (lower, upper, count, confidence, accuracy, gap) row per bin.

    Empty bins carry count 0 and None markers for confidence/accuracy/gap.
    """
    return [(b.lower, b.upper, b.count, b.confidence, b.accuracy,
             None if b.count == 0 else b.accuracy - b.confidence) for b in bins]


def reliability_csv_text(bins):
    return _csv_text("bin_lower,bin_upper,count,mean_confidence,accuracy,gap",
                     export_reliability_rows(bins))


def hist_rows_from_bins(bins, n):
    total = max(n, 1)
    return [(b.lower, b.upper, b.count, b.count / total) for b in bins]


def histogram_csv_text(hist_rows):
    return _csv_text("bin_lower,bin_upper,count,fraction", hist_rows)


# ---- SVG ------------------------------------------------------------------

_PLOT = {"width": 420.0, "height": 420.0, "left": 60.0, "top": 20.0,
         "right": 20.0, "bottom": 50.0}


def _x(v):
    return _PLOT["left"] + v * _PLOT["width"]


def _y(v):
    return _PLOT["top"] + (1.0 - v) * _PLOT["height"]


def _rect(kind, lower, upper, low, high, paint):
    """A `<rect class=kind>` over confidence [lower, upper] and level [low, high]."""
    left = _x(lower)
    return (f'<rect class="{kind}" x="{fmt_sig(left)}" y="{fmt_sig(_y(high))}" '
            f'width="{fmt_sig(_x(upper) - left)}" height="{fmt_sig(_y(low) - _y(high))}" '
            f'{paint}/>')


def _bar(lower, upper, level, fill):
    return _rect("bar", lower, upper, 0.0, level,
                 f'fill="{fill}" fill-opacity="0.8" stroke="black" stroke-width="0.5"')


def _svg(y_label, shapes):
    """A diagram over confidence: the frame, both axes, then `shapes`."""
    w = _PLOT["left"] + _PLOT["width"] + _PLOT["right"]
    h = _PLOT["top"] + _PLOT["height"] + _PLOT["bottom"]
    return "\n".join([f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt_sig(w)}" '
                      f'height="{fmt_sig(h)}" viewBox="0 0 {fmt_sig(w)} {fmt_sig(h)}">',
                      *_axes(y_label), *shapes, "</svg>"]) + "\n"


def _axes(y_label):
    parts = []
    parts.append(f'<line class="axis" x1="{fmt_sig(_x(0))}" y1="{fmt_sig(_y(0))}" '
                 f'x2="{fmt_sig(_x(1))}" y2="{fmt_sig(_y(0))}" stroke="black"/>')
    parts.append(f'<line class="axis" x1="{fmt_sig(_x(0))}" y1="{fmt_sig(_y(0))}" '
                 f'x2="{fmt_sig(_x(0))}" y2="{fmt_sig(_y(1))}" stroke="black"/>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text class="tick" x="{fmt_sig(_x(tick))}" '
                     f'y="{fmt_sig(_y(0) + 18)}" font-size="11" '
                     f'text-anchor="middle">{fmt_sig(tick)}</text>')
        parts.append(f'<text class="tick" x="{fmt_sig(_x(0) - 8)}" '
                     f'y="{fmt_sig(_y(tick) + 4)}" font-size="11" '
                     f'text-anchor="end">{fmt_sig(tick)}</text>')
    mid_x = _x(0.5)
    parts.append(f'<text class="axis-label" x="{fmt_sig(mid_x)}" '
                 f'y="{fmt_sig(_y(0) + 38)}" font-size="13" '
                 'text-anchor="middle">confidence</text>')
    parts.append(f'<text class="axis-label" x="{fmt_sig(_x(0) - 42)}" '
                 f'y="{fmt_sig(_y(0.5))}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 {fmt_sig(_x(0) - 42)} {fmt_sig(_y(0.5))})">'
                 f'{y_label}</text>')
    return parts


def reliability_svg_text(bins):
    """Bar-per-bin reliability diagram with a y=x reference and gap shading."""
    shapes = []
    for b in bins:
        shapes.append(_bar(b.lower, b.upper, 0.0 if b.count == 0 else b.accuracy, "#4878b0"))
        if b.count > 0:
            top = max(b.accuracy, b.confidence)
            bottom = min(b.accuracy, b.confidence)
            # skip sub-pixel shading: float dust is not miscalibration
            if _y(bottom) - _y(top) > 1e-6:
                shapes.append(_rect("gap", b.lower, b.upper, bottom, top,
                                    'fill="#d64545" fill-opacity="0.35"'))
    shapes.append(f'<line class="diagonal" x1="{fmt_sig(_x(0))}" y1="{fmt_sig(_y(0))}" '
                  f'x2="{fmt_sig(_x(1))}" y2="{fmt_sig(_y(1))}" stroke="#555555" '
                  f'stroke-dasharray="5,4"/>')
    return _svg("accuracy", shapes)


def histogram_svg_text(hist_rows):
    """Confidence histogram: bar height proportional to the largest bin count."""
    peak = max((count for _, _, count, _ in hist_rows), default=0)
    bars = [_bar(lower, upper, 0.0 if peak == 0 else count / peak, "#6aa064")
            for lower, upper, count, _ in hist_rows]
    return _svg("fraction of samples", bars)


# ---- run document and bundle ------------------------------------------------

def run_result_doc(result, report, config_doc):
    """The run JSON of a training `result` and the `report` of its model."""
    return {
        "schema_version": RUN_SCHEMA_VERSION,
        "config": config_doc,
        "epochs": [record_doc(e) for e in result.epoch_log],
        "prune_events": [record_doc(p) for p in result.prune_events],
        "report": record_doc(report),
        "totals": {
            "sample_updates": result.total_sample_updates,
            "wall_clock_seconds": result.wall_clock_seconds,
        },
    }


def stable_run_text(text):
    """Run JSON text with volatile timing removed, for stable content digests."""
    doc = json.loads(text)
    doc.get("totals", {}).pop("wall_clock_seconds", None)
    return dumps_json(doc)


def bundle_texts(report, run_doc=None):
    """The five bundle files for a calibration report (plus optional run JSON)."""
    hist = hist_rows_from_bins(report.bins, report.n)
    files = {
        RELIABILITY_CSV: reliability_csv_text(report.bins),
        HISTOGRAM_CSV: histogram_csv_text(hist),
        RELIABILITY_SVG: reliability_svg_text(report.bins),
        HISTOGRAM_SVG: histogram_svg_text(hist),
    }
    if run_doc is not None:
        files[RUN_JSON] = dumps_json(run_doc)
    else:
        files[REPORT_JSON] = dumps_json(record_doc(report))
    return files


def check_output_dir(out_dir):
    """Refuse an output directory that already exists (bundles never
    overwrite), has an existing ancestor that is no directory, or whose
    `.partial` staging path exists (it is never deleted); return that path."""
    out_dir = Path(out_dir)
    if os.path.lexists(out_dir):
        raise FileExistsError(f"output directory {out_dir} already exists")
    for parent in out_dir.parents:
        if os.path.lexists(parent) and not parent.is_dir():
            raise NotADirectoryError(f"output directory {out_dir}: {parent} is not a directory")
    partial = out_dir.with_name(out_dir.name + ".partial")
    if os.path.lexists(partial):
        raise FileExistsError(f"output directory {out_dir}: {partial} already exists")
    return partial


def write_bundle(out_dir, files, extra_files=None):
    """Atomically write a bundle: temp dir, all files, manifest, single rename.

    `files` are manifested with sha256 digests (run.json additionally gets a
    stable digest excluding timing); `extra_files` (e.g. the checkpoint) land
    in the same directory without a manifest entry.
    """
    tmp = check_output_dir(out_dir)  # again here: the paths may have appeared since
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.mkdir()
    manifest = {"schema_version": MANIFEST_SCHEMA_VERSION, "files": {}}
    for name, text in sorted(files.items()):
        (tmp / name).write_text(text)
        entry = {"bytes": len(text.encode()), "sha256": sha256_hex(text)}
        if name == RUN_JSON:
            entry["stable_sha256"] = sha256_hex(stable_run_text(text))
        manifest["files"][name] = entry
    for name, text in sorted((extra_files or {}).items()):
        (tmp / name).write_text(text)
    (tmp / MANIFEST_JSON).write_text(dumps_json(manifest))
    os.rename(tmp, out_dir)
    return manifest
