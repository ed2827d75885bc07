"""Traffic generation and measurement (iperf/ping analogues)."""
