"""Deterministic fault injection and self-healing for NetCo combiners.

``repro.chaos`` answers the question every other experiment leaves open:
*does it survive?*  :class:`~repro.chaos.schedule.FaultSchedule`
declares typed faults (link cuts, Gilbert–Elliott bursts, bandwidth
brownouts, router crashes, mid-run compromises) in JSON;
:class:`~repro.chaos.schedule.ChaosEngine` compiles them onto a live
network deterministically;
:class:`~repro.chaos.quarantine.QuarantineController` closes the loop
the paper leaves to the administrator, quarantining a persistently
missing branch and re-admitting it after probation.
"""
