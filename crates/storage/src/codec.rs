//! Byte-exact node codec and clip-table record sizes (Figure 4
//! physical layout).
//!
//! Node page (4096 bytes):
//! ```text
//! [level: u32][count: u32][lhv: u64]                       — 16-byte header
//! count × [lo: D×f64][hi: D×f64][child: u32]               — entries
//! ```
//!
//! Clip-table record per node (Figure 4b; the table itself is an array
//! indexed by node id; [`crate::layout`] counts its bytes):
//! ```text
//! [count: u16] then count × [mask: u8][coord: D×f64]
//! ```

use cbb_geom::{Point, Rect};
use cbb_rtree::config::{entry_bytes, NODE_HEADER_BYTES, PAGE_SIZE};
use cbb_rtree::{Child, DataId, Entry, Node, NodeId};

/// Serialize a node into a fresh page buffer.
pub fn encode_node<const D: usize>(node: &Node<D>) -> Vec<u8> {
    assert!(
        NODE_HEADER_BYTES + node.entries.len() * entry_bytes(D) <= PAGE_SIZE,
        "node with {} entries overflows a page",
        node.entries.len()
    );
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(&node.level.to_le_bytes());
    buf[4..8].copy_from_slice(&(node.entries.len() as u32).to_le_bytes());
    buf[8..16].copy_from_slice(&node.lhv.to_le_bytes());
    let mut off = NODE_HEADER_BYTES;
    for e in &node.entries {
        for i in 0..D {
            buf[off..off + 8].copy_from_slice(&e.mbb.lo[i].to_le_bytes());
            off += 8;
        }
        for i in 0..D {
            buf[off..off + 8].copy_from_slice(&e.mbb.hi[i].to_le_bytes());
            off += 8;
        }
        let child: u32 = match e.child {
            Child::Node(NodeId(id)) => id,
            Child::Data(DataId(id)) => id,
        };
        buf[off..off + 4].copy_from_slice(&child.to_le_bytes());
        off += 4;
    }
    buf
}

/// Deserialize a node from a page buffer.
pub fn decode_node<const D: usize>(buf: &[u8]) -> Node<D> {
    let level = u32::from_le_bytes(buf[0..4].try_into().expect("header"));
    let count = u32::from_le_bytes(buf[4..8].try_into().expect("header")) as usize;
    let lhv = u64::from_le_bytes(buf[8..16].try_into().expect("header"));
    let mut node = Node::new(level);
    node.lhv = lhv;
    node.entries.reserve_exact(count);
    let mut off = NODE_HEADER_BYTES;
    let read_f64 = |off: &mut usize| {
        let v = f64::from_le_bytes(buf[*off..*off + 8].try_into().expect("coord"));
        *off += 8;
        v
    };
    for _ in 0..count {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for l in lo.iter_mut() {
            *l = read_f64(&mut off);
        }
        for h in hi.iter_mut() {
            *h = read_f64(&mut off);
        }
        let raw = u32::from_le_bytes(buf[off..off + 4].try_into().expect("child"));
        off += 4;
        let child = if level == 0 {
            Child::Data(DataId(raw))
        } else {
            Child::Node(NodeId(raw))
        };
        node.entries.push(Entry {
            mbb: Rect::new(Point(lo), Point(hi)),
            child,
        });
    }
    node.recompute_mbb();
    node
}

/// Bytes one clip point occupies on disk.
pub const fn clip_point_bytes(d: usize) -> usize {
    1 + d * std::mem::size_of::<f64>()
}

/// Bytes the per-node clip-table header occupies (count + offset pointer).
pub const CLIP_RECORD_HEADER_BYTES: usize = 2 + 8;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_node() -> Node<2> {
        let mut n = Node::new(0);
        for i in 0..10 {
            let x = i as f64 * 3.0;
            n.entries.push(Entry::data(
                Rect::new(Point([x, x + 1.0]), Point([x + 2.0, x + 4.0])),
                DataId(i),
            ));
        }
        n.recompute_mbb();
        n.lhv = 0xDEAD_BEEF;
        n
    }

    #[test]
    fn node_roundtrip_leaf() {
        let n = sample_node();
        let buf = encode_node(&n);
        assert_eq!(buf.len(), PAGE_SIZE);
        let back: Node<2> = decode_node(&buf);
        assert_eq!(back.level, 0);
        assert_eq!(back.lhv, n.lhv);
        assert_eq!(back.entries.len(), n.entries.len());
        for (a, b) in n.entries.iter().zip(&back.entries) {
            assert_eq!(a.mbb, b.mbb);
            assert_eq!(a.child, b.child);
        }
        assert_eq!(back.mbb, n.mbb);
    }

    #[test]
    fn node_roundtrip_directory() {
        let mut n: Node<3> = Node::new(2);
        n.entries.push(Entry::node(
            Rect::new(Point([0.0; 3]), Point([1.0, 2.0, 3.0])),
            NodeId(17),
        ));
        n.recompute_mbb();
        let back: Node<3> = decode_node(&encode_node(&n));
        assert_eq!(back.level, 2);
        assert_eq!(back.entries[0].child, Child::Node(NodeId(17)));
    }

    #[test]
    fn full_page_fits_exactly() {
        let mut n: Node<2> = Node::new(0);
        let cap = (PAGE_SIZE - NODE_HEADER_BYTES) / entry_bytes(2);
        for i in 0..cap {
            n.entries.push(Entry::data(
                Rect::new(Point([0.0, 0.0]), Point([1.0, 1.0])),
                DataId(i as u32),
            ));
        }
        n.recompute_mbb();
        let buf = encode_node(&n);
        let back: Node<2> = decode_node(&buf);
        assert_eq!(back.entries.len(), cap);
    }

    #[test]
    #[should_panic(expected = "overflows a page")]
    fn overfull_node_panics() {
        let mut n: Node<2> = Node::new(0);
        let cap = (PAGE_SIZE - NODE_HEADER_BYTES) / entry_bytes(2);
        for i in 0..=cap {
            n.entries.push(Entry::data(
                Rect::new(Point([0.0, 0.0]), Point([1.0, 1.0])),
                DataId(i as u32),
            ));
        }
        let _ = encode_node(&n);
    }

    #[test]
    fn clip_bytes_formula() {
        assert_eq!(clip_point_bytes(2), 17);
        assert_eq!(clip_point_bytes(3), 25);
    }
}
