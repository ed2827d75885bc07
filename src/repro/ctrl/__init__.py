"""Byzantine-replicated control plane (NetCo's combiner, applied to the
controller): k app replicas, fan-in of switch events, majority vote over
canonical byte encodings of outbound control messages, quarantine and
probation for divergent or silent replicas."""
