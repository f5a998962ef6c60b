//! # tm-structs — transactional data structures
//!
//! Ports of the STAMP support library (`list.c`, `hashtable`, `rbtree.c`,
//! `queue.c`, `heap.c`, `bitmap.c`, `vector.c`) to the workspace's
//! simulated-HTM API. Every structure lives in simulated memory, is
//! addressed by a small copyable handle, and is manipulated through a
//! [`htm_runtime::Tx`] inside atomic blocks — so all of its operations are
//! tracked for conflicts and capacity and can abort.
//!
//! The choice *between* these structures is itself part of the paper:
//! Section 4 replaces red-black trees ([`TmRbTree`]) with hash tables
//! ([`TmHashTable`]) for the unordered sets of intruder and vacation, and
//! lists ([`TmList`]) with trees for the ordered sets, precisely because a
//! structure's pointer-chase depth determines its transactional footprint.
//!
//! ```
//! use htm_machine::Platform;
//! use htm_runtime::Sim;
//! use tm_structs::TmRbTree;
//!
//! let sim = Sim::of(Platform::Zec12.config());
//! let mut ctx = sim.seq_ctx();
//! let tree = ctx.atomic(|tx| TmRbTree::create(tx));
//! ctx.atomic(|tx| {
//!     tree.insert(tx, 42, 420)?;
//!     assert_eq!(tree.get(tx, 42)?, Some(420));
//!     Ok(())
//! });
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod array;
pub mod hashtable;
pub mod heap;
pub mod list;
pub mod queue;
pub mod rbtree;

pub use array::{TmArray, TmBitmap};
pub use hashtable::TmHashTable;
pub use heap::TmHeap;
pub use list::TmList;
pub use queue::TmQueue;
pub use rbtree::TmRbTree;
