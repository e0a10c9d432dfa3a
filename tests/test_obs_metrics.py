"""Metrics registry and exporters, including a minimal independent
Prometheus text-format parser that keeps the exposition honest."""

from __future__ import annotations

import re
import threading

import pytest

from repro.errors import DuplicateMetricError
from repro.obs import MetricsRegistry, to_prometheus
from repro.obs.export import metrics_to_dict
from repro.obs.metrics import inc_counters


def test_counter_basics_and_labels():
    reg = MetricsRegistry()
    c = reg.counter("hits_total", "hits", labelnames=("result",))
    c.inc(result="hit")
    c.inc(2, result="miss")
    assert c.value(result="hit") == 1.0
    assert c.value(result="miss") == 2.0
    assert c.value(result="other") == 0.0
    assert c.total() == 3.0
    with pytest.raises(ValueError):
        c.inc(-1, result="hit")
    with pytest.raises(ValueError):
        c.inc(result="hit", extra="x")
    with pytest.raises(ValueError):
        c.inc()  # missing the declared label


def test_key_methods_share_the_labelled_methods_checks():
    reg = MetricsRegistry()
    c = reg.counter("hits_total", "hits", labelnames=("result",))
    key = c.key(result="hit")
    c.inc_key(key, 2)
    c.inc(result="hit")
    assert c.value(result="hit") == 3.0
    with pytest.raises(ValueError):
        c.inc_key(key, -1)
    assert c.value(result="hit") == 3.0
    g = reg.gauge("depth", labelnames=("queue",))
    g.set_key(g.key(queue="a"), 4)
    g.set(5, queue="b")
    assert (g.value(queue="a"), g.value(queue="b")) == (4.0, 5.0)


def test_inc_counters_requires_the_counters_own_lock():
    reg = MetricsRegistry()
    shared = threading.Lock()
    a = reg.counter("a_total", labelnames=("k",), lock=shared)
    b = reg.counter("b_total", labelnames=("k",), lock=shared)
    inc_counters(shared, [(a, [(("x",), 1)]), (b, [(("y",), 2)])])
    assert (a.value(k="x"), b.value(k="y")) == (1.0, 2.0)
    own = reg.counter("own_total", labelnames=("k",))
    with pytest.raises(ValueError, match="own_total"):
        inc_counters(shared, [(a, [(("x",), 1)]), (own, [(("z",), 1)])])
    # nothing is added when any counter is guarded by another lock
    assert (a.value(k="x"), own.value(k="z")) == (1.0, 0.0)


def test_gauge_set_and_inc():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(5)
    g.inc(-2)
    assert g.value() == 3.0


def test_histogram_cumulative_bucket_semantics():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.1, 0.5, 2.0, 100.0):
        h.observe(v)
    snap = h.snapshot()
    # le is inclusive: 0.1 falls in the 0.1 bucket, not the next one.
    assert snap["buckets"][0.1] == 2
    assert snap["buckets"][1.0] == 3
    assert snap["buckets"][10.0] == 4
    assert snap["buckets"][float("inf")] == 5
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(102.65)


def test_duplicate_registration_raises():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(DuplicateMetricError):
        reg.counter("x_total")
    with pytest.raises(DuplicateMetricError):
        reg.gauge("x_total")  # across kinds too
    assert len(reg) == 1 and "x_total" in reg


def test_registries_are_isolated():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("n_total").inc()
    assert "n_total" not in b
    b.counter("n_total")  # no duplicate error across registries
    assert b.get("n_total").total() == 0.0


def test_concurrent_increments_do_not_lose_updates():
    reg = MetricsRegistry()
    c = reg.counter("n_total", labelnames=("w",))
    h = reg.histogram("lat", buckets=(0.5,))

    def work(w: int) -> None:
        for _ in range(1000):
            c.inc(w=w % 2)
            h.observe(0.1)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.total() == 8000
    assert h.snapshot()["count"] == 8000


# --------------------------------------------------------------------- #
# A deliberately independent parser for the text exposition format.
# --------------------------------------------------------------------- #

_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r' (?P<value>[^ ]+)'
    # OpenMetrics exemplar suffix: ` # {label="..."} value`
    r'(?: # \{(?P<exlabels>[^}]*)\} (?P<exvalue>[^ ]+))?$'
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict:
    """{family: {"type": str, "help": str, "samples": {(name, labels): float},
    "exemplars": {(name, labels): (labels, float)}}}"""
    families: dict = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_ = rest.partition(" ")
            families.setdefault(
                name, {"type": None, "help": "", "samples": {},
                       "exemplars": {}}
            )["help"] = help_
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(
                name, {"type": None, "help": "", "samples": {},
                       "exemplars": {}}
            )["type"] = kind
        elif line.startswith("#"):
            continue
        else:
            m = _SAMPLE_RE.match(line)
            assert m, f"unparseable sample line: {line!r}"
            labels = tuple(sorted(_LABEL_RE.findall(m.group("labels") or "")))
            value = float(m.group("value").replace("+Inf", "inf"))
            base = m.group("name")
            family = re.sub(r"_(bucket|sum|count)$", "", base)
            key = base if base in families else family
            assert key in families, f"sample {base} without TYPE header"
            families[key]["samples"][(base, labels)] = value
            if m.group("exvalue") is not None:
                assert base.endswith("_bucket"), \
                    f"exemplar on non-bucket sample: {line!r}"
                families[key]["exemplars"][(base, labels)] = (
                    tuple(sorted(_LABEL_RE.findall(m.group("exlabels")))),
                    float(m.group("exvalue")),
                )
    return families


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("repro_hits_total", "cache hits", labelnames=("result",))
    c.inc(3, result="hit")
    c.inc(result='we"ird\\label\nvalue')
    g = reg.gauge("repro_depth", "plan depth")
    g.set(4)
    h = reg.histogram("repro_latency_seconds", "latency",
                      buckets=(0.001, 0.1))
    h.observe(0.0005)
    h.observe(0.05)
    h.observe(5.0)
    reg.counter("repro_empty_total", "never incremented")
    return reg


def test_prometheus_roundtrip_through_independent_parser():
    reg = _populated_registry()
    fams = parse_prometheus(to_prometheus(reg))

    hits = fams["repro_hits_total"]
    assert hits["type"] == "counter"
    assert hits["help"] == "cache hits"
    assert hits["samples"][
        ("repro_hits_total", (("result", "hit"),))
    ] == 3.0

    assert fams["repro_depth"]["type"] == "gauge"
    assert fams["repro_depth"]["samples"][("repro_depth", ())] == 4.0

    lat = fams["repro_latency_seconds"]
    assert lat["type"] == "histogram"
    s = lat["samples"]
    assert s[("repro_latency_seconds_bucket", (("le", "0.001"),))] == 1
    assert s[("repro_latency_seconds_bucket", (("le", "0.1"),))] == 2
    assert s[("repro_latency_seconds_bucket", (("le", "+Inf"),))] == 3
    assert s[("repro_latency_seconds_count", ())] == 3
    assert s[("repro_latency_seconds_sum", ())] == pytest.approx(5.0505)

    # An unlabelled, never-touched family still exposes one zero sample.
    assert fams["repro_empty_total"]["samples"][
        ("repro_empty_total", ())
    ] == 0.0


def test_prometheus_escapes_label_values():
    reg = _populated_registry()
    text = to_prometheus(reg)
    assert r'result="we\"ird\\label\nvalue"' in text
    # No family header appears twice (the duplicate-registration guard
    # is what makes this impossible; CI greps for the same invariant).
    headers = [l for l in text.splitlines() if l.startswith("# TYPE")]
    assert len(headers) == len(set(headers))


def test_metrics_to_dict_matches_registry():
    reg = _populated_registry()
    d = metrics_to_dict(reg)
    assert d["repro_hits_total"]["kind"] == "counter"
    hit = [s for s in d["repro_hits_total"]["samples"]
           if s["labels"] == {"result": "hit"}]
    assert hit[0]["value"] == 3.0
    series = d["repro_latency_seconds"]["series"][0]
    assert series["count"] == 3
    assert series["buckets"]["+Inf"] == 3


def test_prometheus_escapes_help_but_not_quotes():
    reg = MetricsRegistry()
    reg.counter("h_total", 'say "hi"\nwith\\slash')
    text = to_prometheus(reg)
    # Backslash and newline are escaped in HELP; the quote is legal.
    assert '# HELP h_total say "hi"\\nwith\\\\slash' in text
    parse_prometheus(text)  # and the whole thing still parses


def test_histogram_exemplars_retained_per_bucket():
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", "latency", buckets=(0.001, 0.1))
    h.observe(0.0005, exemplar=11)
    h.observe(0.05, exemplar=12)
    h.observe(0.06, exemplar=13)  # same bucket: last write wins
    h.observe(5.0)                # no exemplar for the overflow bucket
    ex = h.exemplars()
    assert ex[0.001] == {"exemplar": "11", "value": 0.0005}
    assert ex[0.1] == {"exemplar": "13", "value": 0.06}
    assert float("inf") not in ex

    fams = parse_prometheus(to_prometheus(reg))
    exemplars = fams["lat_seconds"]["exemplars"]
    assert exemplars[
        ("lat_seconds_bucket", (("le", "0.001"),))
    ] == ((("trace_id", "11"),), 0.0005)
    assert exemplars[
        ("lat_seconds_bucket", (("le", "0.1"),))
    ] == ((("trace_id", "13"),), 0.06)
    assert ("lat_seconds_bucket", (("le", "+Inf"),)) not in exemplars

    # Strict 0.0.4 consumers can turn the suffix off.
    assert " # {" not in to_prometheus(reg, exemplars=False)

    # The JSON exporter carries the same exemplars.
    d = metrics_to_dict(reg)
    series = d["lat_seconds"]["series"][0]
    assert series["exemplars"]["0.001"] == {"exemplar": "11", "value": 0.0005}


def test_unobserved_unlabelled_histogram_exposes_zero_ladder():
    reg = MetricsRegistry()
    reg.histogram("cold_seconds", "never observed", buckets=(0.5, 1.0))
    fams = parse_prometheus(to_prometheus(reg))
    s = fams["cold_seconds"]["samples"]
    assert s[("cold_seconds_bucket", (("le", "0.5"),))] == 0
    assert s[("cold_seconds_bucket", (("le", "1.0"),))] == 0
    assert s[("cold_seconds_bucket", (("le", "+Inf"),))] == 0
    assert s[("cold_seconds_count", ())] == 0
    assert s[("cold_seconds_sum", ())] == 0.0


def test_every_histogram_series_has_inf_sum_and_count():
    reg = MetricsRegistry()
    h = reg.histogram("l_seconds", "labelled", labelnames=("tenant",),
                      buckets=(0.1,))
    h.observe(0.05, tenant="a")
    h.observe(3.0, tenant="b")
    fams = parse_prometheus(to_prometheus(reg))
    s = fams["l_seconds"]["samples"]
    for tenant in ("a", "b"):
        labels = (("tenant", tenant),)
        assert ("l_seconds_bucket", tuple(sorted(labels + (("le", "+Inf"),)))) in s
        assert ("l_seconds_sum", labels) in s
        assert ("l_seconds_count", labels) in s


def test_micro_bucket_preset_resolves_microseconds():
    from repro.obs import DEFAULT_TIME_BUCKETS, MICRO_TIME_BUCKETS

    reg = MetricsRegistry()
    h = reg.histogram("sim_seconds", "sim", buckets=MICRO_TIME_BUCKETS)
    # Two latencies one decade apart in the µs range land in distinct
    # buckets under the micro preset...
    h.observe(2e-6)
    h.observe(4e-6)
    snap = h.snapshot()
    assert snap["buckets"][2.5e-6] == 1
    assert snap["buckets"][5e-6] == 2
    # ...where the wall-clock preset has at most two bounds per decade.
    per_decade = sum(1 for b in DEFAULT_TIME_BUCKETS if 1e-6 <= b <= 1e-5)
    assert per_decade <= 3 < sum(
        1 for b in MICRO_TIME_BUCKETS if 1e-6 <= b <= 1e-5
    )
