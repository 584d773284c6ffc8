//! Edge-list I/O in the SNAP text format.
//!
//! The paper's data sets are distributed by SNAP as whitespace-separated
//! edge lists with `#` comment lines. This module reads that format (so the
//! real Facebook/Twitter/Slashdot/Google+ snapshots can be dropped in when
//! licensing allows) and writes it back out for interchange. Node ids are
//! densified on load: arbitrary u64 ids in the file map to `0..n`.

use crate::builder::GraphBuilder;
use crate::csr::SocialGraph;
use crate::ids::{to_u32, UserId};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// A loaded graph plus the mapping from dense ids back to file ids.
#[derive(Clone, Debug)]
pub struct LoadedGraph {
    /// The densified graph.
    pub graph: SocialGraph,
    /// `file_id[i]` is the original id of dense node `i`.
    pub file_id: Vec<u64>,
}

/// Parses a SNAP-style edge list from any reader.
///
/// Lines starting with `#` (or `%`) are comments; every other non-empty line
/// must contain two whitespace-separated integer ids. Directed inputs are
/// symmetrized (the paper treats all four data sets as friendship graphs).
///
/// # Errors
/// Returns `io::Error` with `InvalidData` on malformed lines.
pub fn read_edge_list(reader: impl Read) -> std::io::Result<LoadedGraph> {
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut file_id: Vec<u64> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let dense = |raw: u64, ids: &mut HashMap<u64, u32>, file_id: &mut Vec<u64>| -> u32 {
        *ids.entry(raw).or_insert_with(|| {
            file_id.push(raw);
            to_u32(file_id.len() - 1, "dense node id")
        })
    };
    let mut line = String::new();
    let mut r = BufReader::new(reader);
    let mut lineno = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let parse = |s: Option<&str>| -> std::io::Result<u64> {
            s.and_then(|x| x.parse().ok()).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed edge at line {lineno}: {t:?}"),
                )
            })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        let du = dense(u, &mut ids, &mut file_id);
        let dv = dense(v, &mut ids, &mut file_id);
        if du != dv {
            edges.push((du, dv));
        }
    }
    let mut b = GraphBuilder::with_capacity(file_id.len(), edges.len());
    for (u, v) in edges {
        b.add_edge(UserId(u), UserId(v));
    }
    Ok(LoadedGraph {
        graph: b.build(),
        file_id,
    })
}

/// Loads a SNAP edge list from a file path.
///
/// # Errors
/// I/O and parse errors as in [`read_edge_list`].
pub fn load_edge_list(path: impl AsRef<Path>) -> std::io::Result<LoadedGraph> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes a graph as a SNAP edge list (each undirected edge once, `u < v`).
///
/// # Errors
/// Propagates writer errors.
pub fn write_edge_list(graph: &SocialGraph, writer: impl Write) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# Undirected graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(w, "{}\t{}", u.0, v.0)?;
    }
    w.flush()
}

/// Saves a graph to a file path in SNAP format.
///
/// # Errors
/// I/O errors from file creation or writing.
pub fn save_edge_list(graph: &SocialGraph, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_edge_list(graph, std::fs::File::create(path)?)
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // tests are exempt
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_and_tabs() {
        let input = "# comment\n% other comment\n\n10 20\n20\t30\n10 20\n";
        let loaded = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert_eq!(loaded.graph.num_edges(), 2, "duplicate edge deduped");
        assert_eq!(loaded.file_id, vec![10, 20, 30]);
    }

    #[test]
    fn self_loops_dropped() {
        let loaded = read_edge_list("1 1\n1 2\n".as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
    }

    #[test]
    fn malformed_line_is_error() {
        let err = read_edge_list("1 banana\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn round_trip_through_text() {
        use crate::generators::{BarabasiAlbert, Generator};
        let g = BarabasiAlbert::new(60, 3).generate(5);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(loaded.graph.num_nodes(), g.num_nodes());
        assert_eq!(loaded.graph.num_edges(), g.num_edges());
        // Dense ids were written, so the mapping is a permutation of 0..n
        // and every edge must survive (modulo the permutation).
        for (u, v) in loaded.graph.edges() {
            let fu = loaded.file_id[u.index()] as u32;
            let fv = loaded.file_id[v.index()] as u32;
            assert!(g.has_edge(UserId(fu), UserId(fv)));
        }
    }

    #[test]
    fn file_round_trip() {
        use crate::generators::{ErdosRenyi, Generator};
        let g = ErdosRenyi::new(30, 60).generate(2);
        let dir = std::env::temp_dir().join("osn_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        save_edge_list(&g, &path).unwrap();
        let loaded = load_edge_list(&path).unwrap();
        assert_eq!(loaded.graph.num_edges(), 60);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn directed_input_symmetrized() {
        let loaded = read_edge_list("1 2\n2 1\n3 1\n".as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
        assert!(loaded.graph.check_invariants());
    }
}
