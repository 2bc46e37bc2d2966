"""repro.gateway — the asyncio multi-tenant analysis gateway.

The front end that turns the batch/serve analysis service into a
long-running network service: one TCP port speaking framed JSONL and
minimal HTTP/1.1, backed by the persistent warm shard workers of
:mod:`repro.service.shards`.

- :mod:`repro.gateway.protocol` — ``repro.gwframe/1`` frames, input
  hardening (size/depth caps), the stdlib HTTP/1.1 surface;
- :mod:`repro.gateway.routing` — consistent-hash placement of program
  digests onto shards;
- :mod:`repro.gateway.coalesce` — identical in-flight requests share
  one computation;
- :mod:`repro.gateway.admission` — per-tenant token buckets and
  bounded priority queues;
- :mod:`repro.gateway.server` — the :class:`~repro.gateway.server.Gateway`
  tying it all together (the shard pool included).

The load test's zipfian request traces live with the load test, in
``benchmarks/gateway_trace.py``.

Importing the package imports none of its modules, so ``repro serve``
can share :mod:`repro.gateway.protocol`'s input hardening without
loading asyncio or the server.
"""
