"""Service observability: tenant labels, breaker-trip flight dumps,
and trace-context routing."""

import os
import uuid

import pytest

from repro.obs import (
    Tracer,
    activate_tracer,
    configure,
    global_metrics,
    global_recorder,
    load_flight_dump,
    obs_enabled,
    span,
)
from repro.service import DetectionService, ServiceConfig, serve_events
from repro.service.breaker import BREAKER_STATES, CLOSED, HALF_OPEN, OPEN
from repro.service.service import _TenantCounters


@pytest.fixture
def obs_on():
    previous = obs_enabled()
    configure(True)
    yield
    configure(previous)


H = 3600


def _tenant(prefix):
    """Unique tenant names so labelled counters never collide across
    tests (label children register in the process-wide registry)."""
    return "%s-%s" % (prefix, uuid.uuid4().hex[:8])


def _events(tenant, count, key="k"):
    return [(tenant, key, "a", index) for index in range(count)]


class TestTenantLabels:
    def test_top_n_tenants_get_labelled_children(
        self, chain_build, obs_on
    ):
        big = _tenant("big")
        mid = _tenant("mid")
        small = _tenant("small")
        events = (
            _events(big, 8) + _events(mid, 4) + _events(small, 1)
        )
        service = serve_events(
            chain_build, events,
            config=ServiceConfig(tenant_labels=2),
        )
        assert service.stats()["labelled_tenants"] == sorted([big, mid])
        registry = global_metrics()
        child = registry.get(
            "repro_service_events_total", labels={"tenant": big}
        )
        assert child.value() == 8
        assert registry.get(
            "repro_service_events_total", labels={"tenant": mid}
        ).value() == 4

    def test_labels_default_off(self, chain_build, obs_on):
        assert ServiceConfig().tenant_labels == 0
        service = serve_events(chain_build, _events(_tenant("quiet"), 3))
        assert service.stats()["labelled_tenants"] == []

    def test_aggregate_family_counts_unlabelled_tenants_too(
        self, chain_build, obs_on
    ):
        registry = global_metrics()
        aggregate = registry.get("repro_service_events_total")
        before = aggregate.value()
        serve_events(
            chain_build, _events(_tenant("agg"), 5),
            config=ServiceConfig(tenant_labels=0),
        )
        assert aggregate.value() == before + 5

    def test_newcomer_displaces_the_coldest(self, obs_on):
        counters = _TenantCounters(limit=1)
        cold = _tenant("cold")
        hot = _tenant("hot")
        counters.record(cold, received=3)
        assert counters.labelled_tenants() == [cold]
        # Not hotter yet: the slot is kept.
        counters.record(hot, received=2)
        assert counters.labelled_tenants() == [cold]
        # Outgrows the incumbent: promoted; the demoted child keeps
        # its last value (monotonic) but stops advancing.
        counters.record(hot, received=4)
        assert counters.labelled_tenants() == [hot]
        registry = global_metrics()
        assert registry.get(
            "repro_service_events_total", labels={"tenant": cold}
        ).value() == 3
        counters.record(cold, received=1)  # volume 4, still <= 6
        assert registry.get(
            "repro_service_events_total", labels={"tenant": cold}
        ).value() == 3

    def test_zero_limit_registers_nothing(self, obs_on):
        counters = _TenantCounters(limit=0)
        counters.record(_tenant("zero"), received=5)
        assert counters.labelled_tenants() == []


class TestServiceGauges:
    """The queue-depth and breaker-state gauges against a brute-force
    recount of the service's own view, after every submit and drain."""

    @staticmethod
    def _gauges():
        registry = global_metrics()
        depth = registry.get("repro_service_queue_depth").value()
        states = {
            name: registry.get(
                "repro_service_breaker_state", labels={"state": name}
            ).value()
            for name in BREAKER_STATES
        }
        return depth, states

    def _check(self, service):
        depth, states = self._gauges()
        assert depth == sum(service.parked(t) for t in service.tenants())
        breakers = [
            tenant["breaker"]["state"]
            for tenant in service.stats()["tenants"].values()
        ]
        assert states == {
            name: breakers.count(name) for name in BREAKER_STATES
        }
        return depth, states

    @pytest.mark.parametrize(
        "policy", ["shed-oldest", "shed-newest", "sample"]
    )
    def test_gauges_equal_a_recount(
        self, chain_build, obs_on, run, clock, policy
    ):
        seen = []

        async def submit(service, tenant, etype, time):
            await service.submit(tenant, "k", etype, time)
            seen.append(self._check(service))

        async def drain(service):
            await service.drain()
            seen.append(self._check(service))

        async def scenario():
            service = DetectionService(
                chain_build,
                ServiceConfig(
                    queue_capacity=6,
                    shed_policy=policy,
                    breaker_failure_threshold=1,
                    breaker_reset_seconds=10,
                    breaker_clock=clock,
                    max_live_anchors=2,
                ),
            )
            await submit(service, "ok", "a", 0)
            await submit(service, "hot", "a", 0)  # one anchor of two
            for tenant in ("closes", "reopens", "hot"):
                await submit(service, tenant, "", 0)  # malformed: trips
            assert seen[-1][1][OPEN] == 3
            # Open breakers park valid events; a full queue sheds.
            for index in range(7):
                await submit(service, "closes", "bc"[index % 2], index * H)
            await submit(service, "reopens", "", H)  # a failing probe
            # hot's probe adds a second anchor, which halves its
            # capacity to 3; the malformed event behind it re-trips the
            # breaker with four events still parked.
            for etype in ("a", "", "b", "b", "b", "b"):
                await submit(service, "hot", etype, H)
            assert seen[-1][0] == 6 + 1 + 6
            await drain(service)
            clock.advance(11)
            # The lazy open -> half-open move shows at the next export.
            await submit(service, "ok", "b", H)
            assert seen[-1][1][HALF_OPEN] == 3
            await drain(service)
            assert seen[-1] == (4, {CLOSED: 2, OPEN: 2, HALF_OPEN: 0})
            # Four parked over a capacity of three: one event sheds two.
            await submit(service, "hot", "c", 2 * H)
            assert seen[-1][0] == 3
            await service.close()
            seen.append(self._check(service))
            return service

        tenants = run(scenario()).stats()["tenants"]
        assert tenants["closes"]["shed"] == 1
        assert tenants["hot"]["shed"] == 2


class TestBreakerTripDumps:
    def _trip(self, chain_build, tenant, recorder_dir=None):
        """Two invalid events trip a threshold-2 breaker."""
        return serve_events(
            chain_build,
            [
                (tenant, "k", "", 0),  # rejected: empty etype
                (tenant, "k", "a", -1),  # rejected: negative time
            ],
            config=ServiceConfig(
                breaker_failure_threshold=2,
                recorder_dir=recorder_dir,
            ),
        )

    def test_trip_writes_a_flight_dump(
        self, chain_build, obs_on, tmp_path
    ):
        tenant = _tenant("trippy")
        directory = str(tmp_path / "dumps")
        service = self._trip(chain_build, tenant, recorder_dir=directory)
        assert service.stats()["tenants"][tenant]["quarantined"] == 2
        files = sorted(os.listdir(directory))
        assert len(files) == 1
        assert files[0].startswith("flightrec-%s" % tenant)
        payload = load_flight_dump(os.path.join(directory, files[0]))
        assert tenant in payload["reason"]
        # The ring is process-global, so scope to our tenant (earlier
        # tests may have left their own trips in it).
        ours = [
            record for record in payload["captured"]
            if record["attributes"].get("tenant") == tenant
        ]
        names = [record["name"] for record in ours]
        assert "service.reject" in names
        assert "service.breaker_trip" in names
        trip = next(
            record for record in ours
            if record["name"] == "service.breaker_trip"
        )
        assert trip["trigger"] == "error"

    def test_no_dir_means_no_file_but_still_noted(
        self, chain_build, obs_on, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)  # a stray write would land here
        tenant = _tenant("quiet-trip")
        self._trip(chain_build, tenant)
        assert os.listdir(".") == []
        names = [
            record["name"] for record in global_recorder().captured()
            if record["attributes"].get("tenant") == tenant
        ]
        assert "service.breaker_trip" in names

    def test_tenant_name_is_sanitised_in_filename(
        self, chain_build, obs_on, tmp_path
    ):
        directory = str(tmp_path / "dumps")
        self._trip(
            chain_build, "weird/|tenant %s" % uuid.uuid4().hex[:4],
            recorder_dir=directory,
        )
        (name,) = os.listdir(directory)
        assert "/" not in name and "|" not in name and " " not in name


class TestTraceRouting:
    def test_route_spans_reparent_under_the_submitting_span(
        self, chain_build, obs_on, run
    ):
        tenant = _tenant("traced")
        tracer = Tracer()

        async def scenario():
            service = DetectionService(chain_build)
            with span("request"):
                for event in _events(tenant, 3):
                    await service.submit(*event)
                await service.drain()
            await service.close()

        with activate_tracer(tracer):
            run(scenario())
        (request,) = [
            root for root in tracer.roots if root.name == "request"
        ]
        routes = [
            child for child in request.children
            if child.name == "service.route"
        ]
        assert routes, [c.name for c in request.children]
        for route in routes:
            assert route.attributes["tenant"] == tenant
            assert route.parent_id == request.span_id
            assert route.trace_id == tracer.trace_id

    def test_rehydrate_spans_reparent_too(
        self, chain_build, obs_on, run, tmp_path
    ):
        tenant = _tenant("rehydrated")
        tracer = Tracer()

        async def scenario():
            service = DetectionService(
                chain_build,
                config=ServiceConfig(
                    max_resident_sessions=1,
                    checkpoint_dir=str(tmp_path / "ckpt"),
                ),
            )
            with span("request"):
                # Two keys with one residency slot force an eviction
                # and a rehydration on the way back.
                await service.submit(tenant, "k1", "a", 0)
                await service.submit(tenant, "k2", "a", 1)
                await service.submit(tenant, "k1", "b", 2)
                await service.drain()
            await service.close()

        with activate_tracer(tracer):
            run(scenario())
        (request,) = [
            root for root in tracer.roots if root.name == "request"
        ]

        def walk(span_):
            yield span_
            for child in span_.children:
                yield from walk(child)

        rehydrates = [
            s for s in walk(request) if s.name == "service.rehydrate"
        ]
        assert rehydrates
        for rehydrate in rehydrates:
            assert rehydrate.trace_id == tracer.trace_id
            assert rehydrate.parent_id == request.span_id
