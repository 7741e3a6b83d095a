"""Error types of the multi-tenant detection service."""

from __future__ import annotations


class ServiceError(RuntimeError):
    """Base class for service-layer failures."""


class ServiceClosedError(ServiceError):
    """An event was submitted after :meth:`DetectionService.close`."""


class TenantOverloadError(ServiceError):
    """A tenant's ingress queue overflowed under the ``raise`` policy.

    Carries the tenant so a multiplexing caller knows *which* feed to
    slow down; every other tenant is unaffected.
    """

    def __init__(self, tenant: str, capacity: int):
        super().__init__(
            "tenant %r exceeded its ingress capacity of %d events; "
            "pick a shedding policy or raise queue_capacity"
            % (tenant, capacity)
        )
        self.tenant = tenant
        self.capacity = capacity


class CheckpointCorruptError(ServiceError):
    """No durable checkpoint generation of a session could be read."""

    def __init__(self, tenant: str, key: str, detail: str):
        super().__init__(
            "every checkpoint generation for session (%r, %r) is "
            "unreadable: %s" % (tenant, key, detail)
        )
        self.tenant = tenant
        self.key = key
