"""OpenFlow 1.0 substrate: match-action switches and controllers."""
