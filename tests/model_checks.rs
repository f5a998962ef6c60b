//! Property-based tests: transactional data structures against std-library
//! models, and engine invariants, driven by proptest.

use htm_compare::machine::Platform;
use htm_compare::runtime::Sim;
use htm_compare::structs::{TmHashTable, TmHeap, TmList, TmRbTree};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Put(u64, u64),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            (0u64..64).prop_map(MapOp::Remove),
            (0u64..64).prop_map(MapOp::Get),
            (0u64..64, any::<u64>()).prop_map(|(k, v)| MapOp::Put(k, v)),
        ],
        1..120,
    )
}

fn check_against_model(ops: &[MapOp], use_tree: bool) {
    let sim = Sim::of(Platform::IntelCore.config());
    let mut ctx = sim.seq_ctx();
    let mut model = std::collections::BTreeMap::new();
    if use_tree {
        let t = ctx.atomic(TmRbTree::create);
        for op in ops {
            ctx.atomic(|tx| match *op {
                MapOp::Insert(k, v) => {
                    let inserted = t.insert(tx, k, v)?;
                    assert_eq!(inserted, !model.contains_key(&k));
                    if inserted {
                        model.insert(k, v);
                    }
                    Ok(())
                }
                MapOp::Remove(k) => {
                    assert_eq!(t.remove(tx, k)?, model.remove(&k));
                    Ok(())
                }
                MapOp::Get(k) => {
                    assert_eq!(t.get(tx, k)?, model.get(&k).copied());
                    Ok(())
                }
                MapOp::Put(k, v) => {
                    assert_eq!(t.put(tx, k, v)?, model.insert(k, v));
                    Ok(())
                }
            });
        }
        ctx.atomic(|tx| {
            t.validate(tx)?;
            assert_eq!(t.len(tx)?, model.len() as u64);
            let mut expect = model.iter();
            t.for_each(tx, |k, v| {
                assert_eq!(Some((&k, &v)), expect.next());
                Ok(())
            })
        });
    } else {
        let t = ctx.atomic(|tx| TmHashTable::create(tx, 8));
        for op in ops {
            ctx.atomic(|tx| match *op {
                MapOp::Insert(k, v) => {
                    let inserted = t.insert(tx, k, v)?;
                    assert_eq!(inserted, !model.contains_key(&k));
                    if inserted {
                        model.insert(k, v);
                    }
                    Ok(())
                }
                MapOp::Remove(k) => {
                    assert_eq!(t.remove(tx, k)?, model.remove(&k));
                    Ok(())
                }
                MapOp::Get(k) => {
                    assert_eq!(t.get(tx, k)?, model.get(&k).copied());
                    Ok(())
                }
                MapOp::Put(k, v) => {
                    assert_eq!(t.put(tx, k, v)?, model.insert(k, v));
                    Ok(())
                }
            });
        }
        ctx.atomic(|tx| {
            assert_eq!(t.len(tx)?, model.len() as u64);
            Ok(())
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rbtree_matches_btreemap(ops in map_ops()) {
        check_against_model(&ops, true);
    }

    #[test]
    fn hashtable_matches_btreemap(ops in map_ops()) {
        check_against_model(&ops, false);
    }

    #[test]
    fn sorted_list_matches_model(ops in map_ops()) {
        let sim = Sim::of(Platform::Zec12.config());
        let mut ctx = sim.seq_ctx();
        let list = ctx.atomic(TmList::create);
        let mut model = std::collections::BTreeMap::new();
        for op in &ops {
            ctx.atomic(|tx| match *op {
                MapOp::Insert(k, v) => {
                    let ins = list.insert(tx, k, v)?;
                    assert_eq!(ins, !model.contains_key(&k));
                    if ins { model.insert(k, v); }
                    Ok(())
                }
                MapOp::Remove(k) => { assert_eq!(list.remove(tx, k)?, model.remove(&k)); Ok(()) }
                MapOp::Get(k) => { assert_eq!(list.get(tx, k)?, model.get(&k).copied()); Ok(()) }
                MapOp::Put(k, v) => { assert_eq!(list.put(tx, k, v)?, model.insert(k, v)); Ok(()) }
            });
        }
        // Order and contents match.
        let mut expect: Vec<_> = model.into_iter().collect();
        expect.reverse();
        ctx.atomic(|tx| {
            list.for_each(tx, |k, v| {
                assert_eq!(expect.pop(), Some((k, v)));
                Ok(())
            })
        });
        prop_assert!(expect.is_empty());
    }

    #[test]
    fn heap_matches_binary_heap(prios in prop::collection::vec(0u64..1000, 1..80)) {
        let sim = Sim::of(Platform::Power8.config());
        let mut ctx = sim.seq_ctx();
        let h = ctx.atomic(|tx| TmHeap::create(tx, 128));
        let mut model = std::collections::BinaryHeap::new();
        for (i, &p) in prios.iter().enumerate() {
            ctx.atomic(|tx| h.push(tx, p, i as u64).map(|ok| assert!(ok)));
            model.push(p);
        }
        while let Some(expect) = model.pop() {
            let got = ctx.atomic(|tx| h.pop(tx));
            prop_assert_eq!(got.map(|(p, _)| p), Some(expect));
        }
        prop_assert_eq!(ctx.atomic(|tx| h.pop(tx)), None);
    }

    #[test]
    fn concurrent_counter_never_loses_updates(
        threads in 1u32..5,
        per_thread in 1u64..200,
        retries in 0u32..6,
    ) {
        let sim = Sim::of(Platform::IntelCore.config());
        let a = sim.alloc().alloc(1);
        sim.run_parallel(threads, htm_compare::runtime::RetryPolicy::uniform(retries), |ctx| {
            for _ in 0..per_thread {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        prop_assert_eq!(sim.read_word(a), threads as u64 * per_thread);
    }
}
