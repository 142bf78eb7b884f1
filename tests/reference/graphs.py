"""networkx views of both topology layers, built from their public API.

``tests/integration/test_cross_validation.py`` checks the underlay's
Dijkstra, the flooding engine and the graph statistics against networkx's
own algorithms on these graphs.
"""

import networkx as nx

from repro.topology.physical import PhysicalTopology


def to_networkx(graph) -> nx.Graph:
    """*graph* as an ``nx.Graph``: an underlay's hosts linked with a
    ``delay`` attribute, or an overlay's peers (``host`` attribute) linked
    with a ``cost`` attribute."""
    g = nx.Graph()
    if isinstance(graph, PhysicalTopology):
        g.add_nodes_from(graph.nodes())
        for u, v, d in graph.edges():
            g.add_edge(u, v, delay=d)
        return g
    for p in graph.peers():
        g.add_node(p, host=graph.host_of(p))
    graph.warm_edge_costs()  # one batched solve; the loop below only probes
    for u, v in graph.edges():
        g.add_edge(u, v, cost=graph.cost(u, v))
    return g
