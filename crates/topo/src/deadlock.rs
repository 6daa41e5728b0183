//! Channel-dependency-graph deadlock analysis.
//!
//! With blocking flow control and no packet discard, a set of routes can
//! deadlock exactly when the *channel dependency graph* has a cycle: the
//! nodes are directed channels (one per link direction), and there is an
//! edge from channel `c1` to channel `c2` whenever some route uses `c1`
//! immediately followed by `c2` — a packet holding `c1` may be waiting for
//! `c2`. Autonet's up\*/down\* rule (companion paper §6.6.4) works because
//! the spanning-tree direction assignment admits no such cycle. Callers
//! number their channels densely and build the edge list themselves (the
//! route computer in `autonet-core` from its per-destination next hops,
//! `autonet-check` from loaded forwarding tables); this module is the
//! cycle search they share.

/// Searches an arbitrary directed graph for a cycle.
///
/// Returns a witness as a node sequence with the first node repeated at
/// the end, or `None` if the graph is acyclic.
pub fn find_cycle(n: usize, edge_list: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edge_list {
        adj[a].push(b);
    }
    // Iterative three-color DFS with an explicit parent stack so we can
    // reconstruct the witness cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        // Stack holds (node, next child index to try).
        let mut stack = vec![(start, 0usize)];
        color[start] = Color::Gray;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let child = adj[node][*next];
                *next += 1;
                match color[child] {
                    Color::White => {
                        color[child] = Color::Gray;
                        parent[child] = node;
                        stack.push((child, 0));
                    }
                    Color::Gray => {
                        // Found a back edge node -> child; walk parents from
                        // `node` back to `child` to emit the cycle.
                        let mut cycle = vec![child];
                        let mut cur = node;
                        while cur != child {
                            cycle.push(cur);
                            cur = parent[cur];
                        }
                        cycle.push(child);
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clockwise_ring_routes_deadlock() {
        // The classic example: every switch of a 4-ring forwards one hop
        // clockwise, so channel i waits on channel i + 1 and the dependency
        // graph is one cycle. Channel 4 hangs off it and is not part of it.
        let edges = [(4, 0), (0, 1), (1, 2), (2, 3), (3, 0)];
        let cycle = find_cycle(5, &edges).expect("must find the ring cycle");
        assert_eq!(cycle.len(), 5, "four channels, the first repeated");
        assert_eq!(cycle.first(), cycle.last());
        assert!(!cycle.contains(&4));
        for pair in cycle.windows(2) {
            assert!(edges.contains(&(pair[0], pair[1])), "{pair:?} not an edge");
        }
    }

    #[test]
    fn updown_style_ring_routes_are_free() {
        // The same ring oriented from a root: up channels 0..4 only wait on
        // up channels nearer the root or on down channels 4..8, and down
        // channels only on down channels farther out. Diamonds, no cycle.
        let edges = [(1, 0), (2, 3), (0, 4), (3, 4), (4, 5), (4, 6), (5, 7)];
        assert_eq!(find_cycle(8, &edges), None);
        assert_eq!(find_cycle(0, &[]), None);
    }
}
