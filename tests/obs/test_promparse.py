"""The mini promtool: what it accepts, what it rejects, and round-trips."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PipelinedSwitchConfig, SaturatingSource, make_pipelined_switch
from repro.core.sources import BatchRenewalSource
from repro.obs.promparse import (
    Family,
    PromParseError,
    add_labels,
    merge,
    parse,
    render,
)
from repro.sim.packet import reset_packet_ids
from repro.telemetry import Telemetry
from repro.telemetry.export import render_prometheus
from repro.telemetry.metrics import MetricsRegistry

VALID = """\
# HELP repro_cycle Current simulation cycle.
# TYPE repro_cycle gauge
repro_cycle 1200
# HELP repro_port_drops_total Drops by cause.
# TYPE repro_port_drops_total counter
repro_port_drops_total{cause="no_space",port="0"} 4
repro_port_drops_total{cause="no_space",port="1"} 2
# TYPE repro_latency histogram
repro_latency_bucket{le="1"} 3
repro_latency_bucket{le="8"} 10
repro_latency_bucket{le="+Inf"} 12
repro_latency_sum 55
repro_latency_count 12
"""


class TestParseAccepts:
    def test_valid_document(self):
        fams = {f.name: f for f in parse(VALID)}
        assert fams["repro_cycle"].type == "gauge"
        assert fams["repro_cycle"].help == "Current simulation cycle."
        assert fams["repro_port_drops_total"].samples[0].labels == {
            "cause": "no_space", "port": "0"}
        hist = fams["repro_latency"]
        assert hist.type == "histogram"
        assert len(hist.samples) == 5  # buckets + sum + count in one family

    def test_escapes_decoded(self):
        fams = parse('m{a="x\\\\y",b="q\\"z",c="l1\\nl2"} 1\n')
        assert fams[0].samples[0].labels == {
            "a": "x\\y", "b": 'q"z', "c": "l1\nl2"}

    def test_help_escapes_decoded_left_to_right(self):
        # \\n is an escaped backslash then a literal n, NOT a newline
        fams = parse("# HELP m back\\\\nslash\nm 1\n")
        assert fams[0].help == "back\\nslash"

    def test_inf_values(self):
        fams = parse("m +Inf\nn -Inf\n")
        assert fams[0].samples[0].value == float("inf")
        assert fams[1].samples[0].value == float("-inf")

    def test_plain_comments_and_blanks_ignored(self):
        fams = parse("\n# a comment\nm 1\n\n")
        assert [f.name for f in fams] == ["m"]


class TestParseRejects:
    @pytest.mark.parametrize("text,why", [
        ("m{a=\"x\\qy\"} 1\n", "invalid escape"),
        ("m{a=\"x} 1\n", "unterminated"),
        ("m{a='x'} 1\n", "double-quoted"),
        ("m{a=\"1\",a=\"2\"} 1\n", "duplicate label"),
        ("m 1 1690000000\n", "trailing fields"),
        ("m\n", "missing value"),
        ("m notanumber\n", "bad sample value"),
        ("# TYPE m wibble\n", "bad TYPE"),
        ("# TYPE m gauge\n# TYPE m gauge\nm 1\n", "duplicate TYPE"),
        ("# TYPE m gauge\n# HELP m late\nm 1\n", "precede"),
        ("m 1\n# TYPE m gauge\n", "after its samples"),
        ("m 1\nother 2\nm 3\n", "not contiguous"),
    ])
    def test_malformed(self, text, why):
        with pytest.raises(PromParseError, match=why):
            parse(text)

    @pytest.mark.parametrize("mutation,why", [
        (lambda t: t.replace('le="+Inf"', 'le="9"'), r"\+Inf"),
        (lambda t: t.replace('repro_latency_count 12',
                             'repro_latency_count 11'), "_count"),
        (lambda t: t.replace("repro_latency_sum 55\n", ""), "_sum"),
        (lambda t: t.replace('repro_latency_bucket{le="8"} 10',
                             'repro_latency_bucket{le="8"} 2'),
         "cumulative"),
    ])
    def test_histogram_structure(self, mutation, why):
        with pytest.raises(PromParseError, match=why):
            parse(mutation(VALID))


class TestAggregation:
    def test_round_trip(self):
        assert render(parse(VALID)) == render(parse(render(parse(VALID))))

    def test_concatenation_is_invalid_but_merge_is_not(self):
        # the reason the aggregator exists: text concatenation duplicates
        # TYPE; distinct cell labels keep merged series disjoint
        with pytest.raises(PromParseError):
            parse(VALID + VALID)
        merged = merge([add_labels(parse(VALID), cell="a"),
                        add_labels(parse(VALID), cell="b")])
        reparsed = parse(render(merged))
        cells = {s.labels["cell"] for f in reparsed for s in f.samples}
        assert cells == {"a", "b"}

    def test_add_labels_new_label_wins(self):
        fams = add_labels(parse('m{cell="old"} 1\n'), cell="new")
        assert fams[0].samples[0].labels == {"cell": "new"}

    def test_merge_type_conflict_rejected(self):
        a = [Family("m", "gauge")]
        b = [Family("m", "counter")]
        with pytest.raises(PromParseError, match="conflicting types"):
            merge([a, b])

    def test_merge_sorted_and_help_first_nonempty(self):
        a = [Family("z", "gauge"), Family("a", "gauge", help=None)]
        b = [Family("a", "gauge", help="docs")]
        merged = merge([a, b])
        assert [f.name for f in merged] == ["a", "z"]
        assert merged[0].help == "docs"

    def test_value_text_verbatim_through_render(self):
        # integers must not become 4.0, +Inf must stay +Inf
        text = "m 4\nn +Inf\n"
        assert render(parse(text)) == text


class TestArbitraryText:
    _TOKENS = st.sampled_from([
        "# HELP ", "# TYPE ", "#", "m", "m_bucket", "m_sum", "m_count",
        " histogram", " gauge", " counter", "{", "}", 'le="', "a=", '"',
        ",", " ", "\t", "\n", "\r", "\\", "+Inf", "-Inf", "NaN", "1",
        "2.5", "1e3", "_",
    ])

    @settings(max_examples=300, deadline=None)
    @given(text=st.text() | st.lists(_TOKENS, max_size=40).map("".join))
    def test_parse_raises_only_promparse_error(self, text):
        try:
            parse(text)
        except PromParseError:
            pass


def _kernel_registry(kernel: str, droppy: bool) -> MetricsRegistry:
    reset_packet_ids()
    if droppy:
        cfg = PipelinedSwitchConfig(n=4, addresses=8)
        src = SaturatingSource(n_out=4, packet_words=cfg.packet_words, seed=3)
    else:
        cfg = PipelinedSwitchConfig(n=4, addresses=64)
        src = BatchRenewalSource(n_out=4, packet_words=cfg.packet_words,
                                 load=0.7, seed=1)
    tel = Telemetry.on(sample_interval=32)
    sw = make_pipelined_switch(cfg, src, telemetry=tel, kernel=kernel)
    sw.run(800)
    sw.drain()
    return tel.metrics


def _synthetic_registry() -> MetricsRegistry:
    m = MetricsRegistry()
    m.counter("weird_total", path='C:\\path\\"quoted"\nnext\\nline').inc()
    m.counter("c_total").inc(7)
    m.gauge("g", port=3).set(math.inf)
    m.gauge("unset")
    m.gauge("frac").set(0.125)
    m.histogram("lat", port=1, zone="z").observe(5)
    m.describe("g", "help with a \\ backslash\nand a newline")
    return m


class TestRenderOfParseIsIdentity:
    """``render(parse(t)) == t`` for the repo's own exposition text."""

    @pytest.mark.parametrize("kernel", ["checked", "fast", "batch"])
    @pytest.mark.parametrize("droppy", [False, True], ids=["clean", "drops"])
    def test_kernel_registries(self, kernel, droppy):
        text = render_prometheus(_kernel_registry(kernel, droppy))
        assert "repro_port_drops_total" in text or not droppy
        assert render(parse(text)) == text

    def test_synthetic_registry(self):
        text = render_prometheus(_synthetic_registry())
        assert render(parse(text)) == text

    def test_merged_cells(self):
        groups = [add_labels(parse(render_prometheus(_kernel_registry(k, True))),
                             cell=k) for k in ("checked", "batch")]
        text = render(merge(groups))
        assert render(parse(text)) == text
