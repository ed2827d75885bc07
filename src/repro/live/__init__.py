"""Real-time (wall-clock, multi-process) runs of the NetCo combiner.

The DES backend answers "what does the paper's testbed do"; this package
answers "does the same voting code hold up over real sockets".  Three
switch processes and one compare process talk localhost UDP through
:mod:`repro.transport.udp`; the compare process runs the *same*
:class:`~repro.core.compare.CompareCore` and
:class:`~repro.chaos.quarantine.QuarantineController` the simulator
runs, scheduled by :class:`~repro.transport.realtime.RealTimeScheduler`.

Fault schedules live in *packet-index* space (drop sequence numbers in
``[at_index, restart_index)``) so a live run and its DES twin inject the
same fault at the same point of the packet stream, making the two
backends' verdicts — alarms, quarantine transitions, released-sequence
fingerprint — directly comparable (see DESIGN.md §14).
"""
