"""The merged campaign timeline: spans -> one Perfetto document."""

import json

import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.campaign.timeline import (
    COORDINATOR_PID,
    campaign_timeline,
    default_timeline_path,
    timeline_events,
    timeline_summary,
    write_campaign_timeline,
)


@pytest.fixture
def spec():
    return CampaignSpec.from_dict({
        "name": "s",
        "base": {"radix": 4, "warmup": 50, "measure": 200,
                 "message_length": 8},
        "axes": {"routing": ["cr"], "load": [0.1]},
    })


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "c.sqlite")) as s:
        yield s


def span_row(span_id, kind="run", status="ok", worker_id="w1",
             point_id=None, parent_id=None, start_ts=1.0, end_ts=2.0,
             **attrs):
    return {
        "trace_id": "t" * 32, "span_id": span_id,
        "parent_id": parent_id, "name": f"{kind} {span_id[:4]}",
        "kind": kind, "worker_id": worker_id, "point_id": point_id,
        "start_ts": start_ts,
        "end_ts": None if status == "open" else end_ts,
        "status": status, "attrs": attrs,
    }


def fabric_spans(point_id):
    """A minimal two-worker traced fabric: root + sessions + leases + runs."""
    return [
        span_row("r" * 16, kind="root", worker_id="coordinator",
                 start_ts=0.0, end_ts=10.0),
        span_row("1a" * 8, kind="worker", worker_id="w1",
                 parent_id="r" * 16, start_ts=1.0, end_ts=9.0),
        span_row("2a" * 8, kind="worker", worker_id="w2",
                 parent_id="r" * 16, start_ts=1.5, end_ts=9.5),
        span_row("1b" * 8, kind="lease", worker_id="w1",
                 parent_id="1a" * 8, point_id=point_id, start_ts=2.0,
                 end_ts=8.0),
        span_row("1c" * 8, kind="run", worker_id="w1",
                 parent_id="1b" * 8, point_id=point_id, start_ts=3.0,
                 end_ts=7.0),
    ]


class TestProcessTracks:
    def test_one_track_per_process_coordinator_first(self, store, spec):
        store.register(spec)
        point_id = next(iter(spec.points())).point_id
        store.record_spans("s", fabric_spans(point_id))
        events = timeline_events(store, "s")
        names = {
            event["pid"]: event["args"]["name"]
            for event in events if event["ph"] == "M"
        }
        assert names[COORDINATOR_PID] == "coordinator"
        # workers numbered by first-span order
        assert names[COORDINATOR_PID + 1] == "w1"
        assert names[COORDINATOR_PID + 2] == "w2"

    def test_a_traced_local_run_is_a_one_worker_fabric(self, store, spec):
        """The coordinator's root and submit on its track; the session,
        lease, run and journal spans on the one worker's."""
        assert run_campaign(spec, store, trace=True).complete
        events = timeline_events(store, "s")
        names = {event["pid"]: event["args"]["name"]
                 for event in events if event["ph"] == "M"}
        (worker_id,) = {span["worker_id"] for span in store.spans("s")
                        if span["kind"] == "worker"}
        assert names == {COORDINATOR_PID: "coordinator",
                         COORDINATOR_PID + 1: worker_id}
        tracks = {}
        for event in events:
            if event["ph"] == "X":
                tracks.setdefault(event["pid"], set()).add(event["cat"])
        assert tracks == {
            COORDINATOR_PID: {"root", "submit"},
            COORDINATOR_PID + 1: {"worker", "lease", "run", "journal"},
        }
        assert timeline_summary(store, "s")["open"] == 0

    def test_every_span_becomes_a_duration_event(self, store, spec):
        store.register(spec)
        point_id = next(iter(spec.points())).point_id
        store.record_spans("s", fabric_spans(point_id))
        events = timeline_events(store, "s")
        durations = [e for e in events if e["ph"] == "X"]
        assert len(durations) == 5
        by_cat = {e["cat"]: e for e in durations}
        root = by_cat["root"]
        assert root["pid"] == COORDINATOR_PID
        assert root["ts"] == 0 and root["dur"] == 10_000_000  # us
        run = by_cat["run"]
        assert run["pid"] == COORDINATOR_PID + 1
        assert run["args"]["point_id"] == point_id
        assert run["args"]["parent_id"] == "1b" * 8
        # ids in args make parenting checkable inside Perfetto
        assert all(e["args"]["trace_id"] == "t" * 32 for e in durations)

    def test_open_span_is_drawn_to_the_horizon(self, store, spec):
        store.register(spec)
        store.record_spans("s", [
            span_row("r" * 16, kind="root", worker_id="coordinator",
                     status="open", start_ts=0.0),
            span_row("a" * 16, kind="run", worker_id="w1",
                     start_ts=1.0, end_ts=5.0),
        ])
        events = timeline_events(store, "s")
        root = [e for e in events if e["ph"] == "X"
                and e["cat"] == "root"][0]
        assert root["dur"] == 5_000_000  # horizon = latest end_ts


class TestCounterAndAlertMapping:
    def _landed_point(self, store, spec):
        point = next(iter(spec.points()))
        store.register(spec)
        store.record_success("s", point, {"latency_mean": 1.0}, 0.1)
        store.record_spans("s", fabric_spans(point.point_id))
        return point

    def test_samples_map_cycles_onto_the_run_span(self, store, spec):
        point = self._landed_point(store, spec)
        store.record_timeseries("s", point, [
            {"index": 0, "start": 0, "end": 100, "latency_mean": 5.0},
            {"index": 1, "start": 100, "end": 200, "latency_mean": 9.0},
        ])
        events = timeline_events(store, "s")
        counters = [e for e in events if e["ph"] == "C"
                    and e["name"] == "point latency_mean"]
        assert len(counters) == 2
        # run span covers wall 3.0..7.0; final cycle 200 maps to 7.0,
        # cycle 100 to the midpoint 5.0
        assert counters[0]["ts"] == 5_000_000
        assert counters[1]["ts"] == 7_000_000
        assert counters[0]["args"] == {"latency_mean": 5.0}
        # counters land on the worker that ran the point
        assert all(c["pid"] == COORDINATOR_PID + 1 for c in counters)

    def test_alert_instants_ride_the_same_mapping(self, store, spec):
        point = self._landed_point(store, spec)
        store.record_timeseries("s", point, [
            {"index": 0, "start": 0, "end": 200, "latency_mean": 5.0},
        ])
        store.record_success("s", point, {"latency_mean": 1.0}, 0.1,
                             alerts=[{
            "rule": "hot", "severity": "warning", "state": "firing",
            "fired_at": 100, "resolved_at": None, "value": 9.0,
            "message": "latency high",
        }])
        events = timeline_events(store, "s")
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "alert hot"
        assert instant["s"] == "g"
        assert instant["ts"] == 5_000_000  # cycle 100/200 -> wall 5.0
        assert instant["args"]["severity"] == "warning"

    def test_points_done_counter_steps_on_the_coordinator(self, store,
                                                          spec):
        self._landed_point(store, spec)
        events = timeline_events(store, "s")
        (done,) = [e for e in events if e["name"] == "points_done"]
        assert done["pid"] == COORDINATOR_PID
        assert done["args"] == {"done": 1}
        assert done["ts"] == 7_000_000  # the run span's end


class TestDocument:
    def test_document_shape_and_write(self, store, spec, tmp_path):
        store.register(spec)
        point_id = next(iter(spec.points())).point_id
        store.record_spans("s", fabric_spans(point_id))
        document = campaign_timeline(store, "s")
        assert set(document) == {"traceEvents", "displayTimeUnit",
                                 "otherData"}
        path = write_campaign_timeline(store, "s")
        assert path == default_timeline_path(store.path, "s")
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == json.loads(
                json.dumps(document))

    def test_write_without_spans_raises(self, store, spec):
        store.register(spec)
        with pytest.raises(LookupError, match="no journaled spans"):
            write_campaign_timeline(store, "s")

    def test_memory_store_needs_an_explicit_path(self, spec, tmp_path):
        with CampaignStore(":memory:") as store:
            store.register(spec)
            store.record_spans("s", [span_row("a" * 16)])
            with pytest.raises(ValueError, match="in-memory"):
                write_campaign_timeline(store, "s")
            target = str(tmp_path / "out.json")
            assert write_campaign_timeline(store, "s",
                                           target) == target

    def test_summary(self, store, spec):
        store.register(spec)
        point_id = next(iter(spec.points())).point_id
        spans = fabric_spans(point_id)
        spans[0]["status"] = "open"
        spans[0]["end_ts"] = None
        store.record_spans("s", spans)
        summary = timeline_summary(store, "s")
        assert summary["spans"] == 5 and summary["open"] == 1
        assert summary["by_kind"] == {"root": 1, "worker": 2,
                                      "lease": 1, "run": 1}
        assert summary["workers"] == ["coordinator", "w1", "w2"]
        assert summary["traces"] == ["t" * 32]
