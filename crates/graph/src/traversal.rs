//! Breadth-first search primitives.
//!
//! BFS underlies the exact distance distribution (used to validate
//! HyperANF).

use crate::graph::Graph;

/// Sentinel distance meaning "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `source`; unreachable vertices get [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, source: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    bfs_distances_into(g, source, &mut dist, &mut Vec::new());
    dist
}

/// BFS reusing caller-provided buffers (for tight loops over many sources).
/// `dist` is reset to [`UNREACHABLE`]; `queue` is cleared.
pub fn bfs_distances_into(g: &Graph, source: u32, dist: &mut Vec<u32>, queue: &mut Vec<u32>) {
    let n = g.num_vertices();
    dist.clear();
    dist.resize(n, UNREACHABLE);
    queue.clear();
    if (source as usize) >= n {
        return;
    }
    dist[source as usize] = 0;
    queue.push(source);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn path_distances() {
        let d = bfs_distances(&path4(), 0);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_marked() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn cycle_distances() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn buffers_reusable() {
        let g = path4();
        let mut dist = Vec::new();
        let mut queue = Vec::new();
        bfs_distances_into(&g, 0, &mut dist, &mut queue);
        assert_eq!(dist[3], 3);
        bfs_distances_into(&g, 3, &mut dist, &mut queue);
        assert_eq!(dist[0], 3);
        assert_eq!(dist[3], 0);
    }
}
