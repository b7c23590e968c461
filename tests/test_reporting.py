"""CSV/SVG emission, bundle atomicity, and digest stability."""

import json

import numpy as np
import pytest

from calprune.metrics import (CalibrationReport, ReliabilityBin, SubsetCalibration,
                              build_report)
from calprune.reporting import (HISTOGRAM_CSV, MANIFEST_JSON, RELIABILITY_CSV,
                                RELIABILITY_SVG, bundle_texts, dumps_json, fmt_sig,
                                hist_rows_from_bins, histogram_svg_text,
                                reliability_csv_text, reliability_svg_text,
                                run_result_doc, sha256_hex, stable_run_text, write_bundle)
from calprune.trainer import EpochStats, PruneEvent, RunResult


def sample_report(seed=0, n=200):
    rng = np.random.default_rng(seed)
    conf = rng.uniform(0, 1, n)
    correct = (rng.random(n) < 0.6).astype(np.float64)
    return build_report(conf, correct, 10, [0.95])


def perfectly_calibrated_report():
    ks = np.arange(1, 20, 2)  # confidences k/20 hit each bin's centre exactly
    conf = np.repeat(ks / 20, 20)
    correct = (np.tile(np.arange(20), len(ks)) < np.repeat(ks, 20)).astype(np.float64)
    return build_report(conf, correct, 10, [])


def test_reliability_csv_has_header_and_all_bins():
    report = sample_report()
    text = reliability_csv_text(report.bins)
    lines = text.strip().split("\n")
    assert lines[0] == "bin_lower,bin_upper,count,mean_confidence,accuracy,gap"
    assert len(lines) == 11


def test_empty_bins_are_blank_in_csv():
    report = build_report(np.full(5, 0.95), np.ones(5), 10, [])
    text = reliability_csv_text(report.bins)
    first_bin = text.strip().split("\n")[1]
    assert first_bin.endswith(",0,,,")


def test_reliability_svg_bar_and_diagonal_counts():
    report = sample_report()
    svg = reliability_svg_text(report.bins)
    assert svg.count('class="bar"') == 10
    assert svg.count('class="diagonal"') == 1
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_calibrated_bars_touch_diagonal():
    report = perfectly_calibrated_report()
    svg = reliability_svg_text(report.bins)
    # bar tops sit where the diagonal crosses the bin's confidence
    from calprune.reporting import _y
    for b in report.bins:
        if b.count:
            assert f'y="{fmt_sig(_y(b.accuracy))}"' in svg
            assert b.accuracy == pytest.approx(b.confidence, abs=1e-12)
    assert svg.count('class="gap"') == 0  # nothing beyond float dust to shade


def test_svg_bytes_deterministic():
    report = sample_report()
    assert reliability_svg_text(report.bins) == reliability_svg_text(report.bins)
    hist = hist_rows_from_bins(report.bins, report.n)
    assert histogram_svg_text(hist) == histogram_svg_text(hist)


def test_stable_run_text_strips_wall_clock():
    doc = {"totals": {"sample_updates": 10, "wall_clock_seconds": 1.23}, "x": 1}
    other = {"totals": {"sample_updates": 10, "wall_clock_seconds": 9.87}, "x": 1}
    assert stable_run_text(dumps_json(doc)) == stable_run_text(dumps_json(other))
    assert "wall_clock" not in stable_run_text(dumps_json(doc))


def test_write_bundle_atomic_and_manifested(tmp_path):
    report = sample_report()
    files = bundle_texts(report)
    out = tmp_path / "bundle"
    manifest = write_bundle(out, files)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        list(files) + [MANIFEST_JSON])
    on_disk = json.loads((out / MANIFEST_JSON).read_text())
    assert on_disk == manifest
    for name, entry in manifest["files"].items():
        text = (out / name).read_text()
        assert sha256_hex(text) == entry["sha256"]
        assert len(text.encode()) == entry["bytes"]
    assert not (tmp_path / "bundle.partial").exists()


def test_write_bundle_refuses_existing_dir(tmp_path):
    out = tmp_path / "bundle"
    out.mkdir()
    with pytest.raises(FileExistsError):
        write_bundle(out, {"a.txt": "hello"})


def test_write_bundle_refuses_an_existing_partial_and_keeps_it(tmp_path):
    """A `.partial` staging path that write_bundle did not create, a directory
    or a file, is refused by name and left as it was."""
    (tmp_path / "d.partial").mkdir()
    (tmp_path / "d.partial" / "mine.txt").write_text("mine")
    (tmp_path / "f.partial").write_text("mine")
    for name in ("d", "f"):
        with pytest.raises(FileExistsError, match=f"{name}.partial already exists$"):
            write_bundle(tmp_path / name, {"a.txt": "hello"})
        assert not (tmp_path / name).exists()
    assert (tmp_path / "d.partial" / "mine.txt").read_text() == "mine"
    assert (tmp_path / "f.partial").read_text() == "mine"


def test_bundle_texts_cover_five_files():
    report = sample_report()
    files = bundle_texts(report, run_doc={"schema_version": 1})
    assert sorted(files) == sorted([
        "run.json", RELIABILITY_CSV, HISTOGRAM_CSV, RELIABILITY_SVG,
        "confidence_histogram.svg"])


def test_fmt_sig_six_significant_digits():
    assert fmt_sig(0.123456789) == "0.123457"
    assert fmt_sig(12345678.0) == "1.23457e+07"
    assert fmt_sig(1.0) == "1"


def literal_report():
    """Twelve records, all correct, from literal floats: an empty bin, an
    empty and a filled subset, and no AUROC."""
    bins = [ReliabilityBin(0.0, 0.25, 0, None, None),
            ReliabilityBin(0.25, 0.5, 3, 0.4, 1.0),
            ReliabilityBin(0.5, 0.75, 5, 0.6125, 1.0),
            ReliabilityBin(0.75, 1.0, 4, 0.9, 1.0)]
    subsets = [SubsetCalibration(0.5, 9, 75.0, 0.2597222222222222, False),
               SubsetCalibration(0.99, 0, 0.0, None, True)]
    return CalibrationReport(12, 4, bins, 0.3447916666666666, subsets, 0.0, None)


# sha256 of each bundle file, fixed when the writers were last changed on purpose
PINNED_PLOTS = {
    "confidence_histogram.csv": "a3b90a0017da3b3fb998c29473b3f07378cad8dcd3e6c1ba4ec34f0acb0b0dcb",
    "confidence_histogram.svg": "ee6d3bed969ea4d2321c68c6d12e4f250d7a7a23d2077b20a4b8b20b353b771c",
    "reliability.csv": "4cbcf1c8b29a36de84484adc943689d12b9456db1a08e913f8d68a260a7843c5",
    "reliability.svg": "df45dce1b97c026cedb5e255fdcb68dab3f6ae8f0aba58e6b417104a69097d2c",
}
PINNED_REPORT_BUNDLE = {
    **PINNED_PLOTS,
    "report.json": "f5645be1ca391da41af094ce5308d3bd2e9448214bda1d67a25827a989b079ee"}
PINNED_RUN_BUNDLE = {
    **PINNED_PLOTS,
    "run.json": "9b978adf976fb9be58a260737dbb6156ba6e50cbfa267b82ecc10dd6f1f6c084"}


def test_bundle_bytes_pinned():
    """Every writer's bytes, pinned; pure-Python floats keep them portable."""
    report = literal_report()
    run = RunResult(params=None, epoch_log=[EpochStats(1, 0.75, 12), EpochStats(2, 0.5, 10)],
                    prune_events=[PruneEvent(1, [1, 1], 10)],
                    total_sample_updates=22, wall_clock_seconds=1.5)
    run_doc = run_result_doc(run, report, {"output_dir": "runs/pinned"})
    for doc, pinned in ((None, PINNED_REPORT_BUNDLE), (run_doc, PINNED_RUN_BUNDLE)):
        files = bundle_texts(report, doc)
        assert {name: sha256_hex(text) for name, text in files.items()} == pinned
