"""The repository benchmark: seeded workloads, output checks, layer tracing."""
