"""The metrics registry: instruments, snapshots, merging, exposition."""

import math
import pickle

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.state import STATE


@pytest.fixture
def on(clean_obs):
    STATE.metrics_on = True
    return MetricsRegistry()


# -- instruments ---------------------------------------------------------------


def test_counter_accumulates_per_label_set(on):
    c = on.counter("t_total", "help", ("tier",))
    c.inc(tier="memory")
    c.inc(2, tier="memory")
    c.inc(tier="store")
    assert c.value(tier="memory") == 3
    assert c.value(tier="store") == 1
    assert c.value(tier="simulate") == 0


def test_counter_rejects_negative_increments(on):
    c = on.counter("neg_total", "help")
    with pytest.raises(ConfigError, match="cannot decrease"):
        c.inc(-1)


def test_counter_rejects_wrong_labels(on):
    c = on.counter("lbl_total", "help", ("tier",))
    with pytest.raises(ConfigError, match="takes labels"):
        c.inc(shard="0")
    with pytest.raises(ConfigError, match="takes labels"):
        c.inc()


def test_gauge_set_inc_dec(on):
    g = on.gauge("g", "help")
    g.set(4)
    g.inc()
    g.dec(2)
    assert g.value() == 3


def test_histogram_buckets_are_cumulative(on):
    h = on.histogram("h_seconds", "help", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(value)
    state = h.state()
    assert state.bucket_counts == (1, 3, 4)  # cumulative, +Inf == count
    assert state.count == 5
    assert state.sum == pytest.approx(56.05)


def test_histogram_observe_many_equals_one_observe_per_value(on):
    values = (0.05, 0.1, 0.5, 0.5, 5.0, 50.0, float("nan"))
    single = on.histogram("one_seconds", "help", ("op",), buckets=(0.1, 1.0, 10.0))
    bulk = on.histogram("many_seconds", "help", ("op",), buckets=(0.1, 1.0, 10.0))
    for value in values:
        single.observe(value, op="put")
    bulk.observe_many(iter(values), op="put")
    bulk.observe_many([], op="get")
    for h in (single, bulk):
        state = h.state(op="put")
        assert state.bucket_counts == (2, 4, 5)  # NaN counts only in +Inf
        assert state.count == len(values)
    assert math.isnan(bulk.state(op="put").sum)
    assert bulk.state(op="get").count == 0
    with pytest.raises(ConfigError, match="takes labels"):
        bulk.observe_many([1.0])


def test_registry_get_or_create_is_idempotent(on):
    a = on.counter("same_total", "help", ("x",))
    b = on.counter("same_total", "other help ignored", ("x",))
    assert a is b


def test_registry_refuses_kind_and_label_conflicts(on):
    on.counter("conflict_total", "help", ("x",))
    with pytest.raises(ConfigError, match="already registered"):
        on.gauge("conflict_total", "help", ("x",))
    with pytest.raises(ConfigError, match="already registered"):
        on.counter("conflict_total", "help", ("y",))


def test_invalid_metric_and_label_names_are_refused(on):
    with pytest.raises(ConfigError, match="invalid metric name"):
        on.counter("bad-name", "help")
    with pytest.raises(ConfigError, match="invalid metric label"):
        on.counter("ok_total", "help", ("bad-label",))


# -- the global switch ---------------------------------------------------------


def test_instruments_are_noops_while_metrics_are_off(clean_obs):
    registry = MetricsRegistry()
    c = registry.counter("off_total", "help")
    h = registry.histogram("off_seconds", "help")
    c.inc()
    h.observe(1.0)
    h.observe_many([1.0, 2.0])
    assert c.value() == 0
    assert h.count() == 0


# -- snapshots -----------------------------------------------------------------


def test_snapshot_pickles_and_merges_counters_and_histograms(on):
    on.counter("m_total", "help", ("k",)).inc(3, k="a")
    on.histogram("m_seconds", "help", buckets=(1.0,)).observe(0.5)
    shipped = pickle.loads(pickle.dumps(on.snapshot()))

    dest = MetricsRegistry()
    dest.counter("m_total", "help", ("k",)).inc(1, k="a")
    dest.merge(shipped)
    dest.merge(shipped)
    assert dest.counter("m_total", "help", ("k",)).value(k="a") == 7
    assert dest.histogram("m_seconds", "help", buckets=(1.0,)).count() == 2


def test_merged_histograms_add_buckets_sum_and_count(on):
    source = on.histogram("mh_seconds", "help", buckets=(0.1, 1.0, 10.0))
    for value in (0.1, 0.5, 5.0, 50.0):  # 0.1 sits exactly on a bound
        source.observe(value)
    shipped = pickle.loads(pickle.dumps(on.snapshot()))

    dest = MetricsRegistry()
    merged = dest.histogram("mh_seconds", "help", buckets=(0.1, 1.0, 10.0))
    merged.observe(0.5)
    dest.merge(shipped)
    state = merged.state()
    assert state.bucket_counts == (1, 3, 4)
    assert state.count == 5
    assert state.sum == pytest.approx(56.1)


def test_snapshot_is_a_copy_of_live_histograms(on):
    h = on.histogram("copy_seconds", "help", buckets=(1.0,))
    h.observe(0.5)
    snap = on.snapshot()
    h.observe(0.5)
    (state,) = snap.metrics["copy_seconds"]["series"].values()
    assert (state.bucket_counts, state.count) == ((1,), 1)
    assert h.state().bucket_counts == (2,)


def test_merge_gauges_take_the_incoming_value(on):
    on.gauge("m_gauge", "help").set(10)
    shipped = on.snapshot()
    dest = MetricsRegistry()
    dest.gauge("m_gauge", "help").set(99)
    dest.merge(shipped)
    assert dest.gauge("m_gauge", "help").value() == 10


def test_merge_ignores_the_off_switch(clean_obs):
    STATE.metrics_on = True
    source = MetricsRegistry()
    source.counter("sw_total", "help").inc(5)
    shipped = source.snapshot()
    STATE.metrics_on = False

    dest = MetricsRegistry()
    dest.merge(shipped)
    assert dest.counter("sw_total", "help").value() == 5


def test_reset_zeroes_series_but_keeps_instruments(on):
    c = on.counter("r_total", "help")
    c.inc(4)
    on.reset()
    assert c.value() == 0
    assert "r_total" in on.names()


# -- Prometheus rendering ------------------------------------------------------


def test_render_prometheus_shape(on):
    on.counter("p_total", "requests served", ("code",)).inc(2, code="200")
    on.gauge("p_gauge", "a gauge").set(1.5)
    on.histogram("p_seconds", "latency", buckets=(0.1, 1.0)).observe(0.05)
    text = render_prometheus(on.snapshot())
    assert "# HELP p_total requests served\n# TYPE p_total counter" in text
    assert 'p_total{code="200"} 2' in text
    assert "# TYPE p_gauge gauge" in text
    assert "p_gauge 1.5" in text
    assert "# TYPE p_seconds histogram" in text
    assert 'p_seconds_bucket{le="0.1"} 1' in text
    assert 'p_seconds_bucket{le="1"} 1' in text
    assert 'p_seconds_bucket{le="+Inf"} 1' in text
    assert "p_seconds_count 1" in text
    assert text.endswith("\n")


def test_render_prometheus_escapes_label_values(on):
    on.counter("e_total", "help", ("path",)).inc(path='a"b\\c\nd')
    text = render_prometheus(on.snapshot())
    assert 'path="a\\"b\\\\c\\nd"' in text


def test_render_prometheus_is_deterministic(on):
    c = on.counter("d_total", "help", ("k",))
    c.inc(k="b")
    c.inc(k="a")
    assert render_prometheus(on.snapshot()) == render_prometheus(on.snapshot())
    lines = [
        line
        for line in render_prometheus(on.snapshot()).splitlines()
        if not line.startswith("#")
    ]
    assert lines == sorted(lines)


def test_default_buckets_are_sorted():
    assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
