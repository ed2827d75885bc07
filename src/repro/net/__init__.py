"""Network substrate: packets, links, nodes, hosts, topologies."""
