//! Fabric instrumentation: send/recv/try_recv/barrier/allreduce record
//! epoch- and seq-tagged spans into the op2-trace rings.

use std::time::Duration;

use op2_dist::fabric::{CommConfig, CommError, Fabric};
use op2_trace::{pack2, unpack2, Collector, EventKind};

#[test]
fn fabric_ops_record_tagged_spans() {
    let collector = Collector::start();
    Fabric::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, vec![1.0, 2.0]).unwrap();
        } else {
            assert_eq!(comm.recv(0, 7).unwrap(), vec![1.0, 2.0]);
        }
        comm.barrier().unwrap();
        comm.allreduce_sum(&[comm.rank() as f64]).unwrap();
    });
    let timeline = collector.stop();

    // The explicit send plus the allreduce's internal gather/broadcast.
    let sends: Vec<_> = timeline.of_kind(EventKind::FabricSend).collect();
    assert!(sends.len() >= 2, "got {} sends", sends.len());
    // The user-level send is link 0→1, epoch 0, seq 0.
    assert!(sends
        .iter()
        .any(|e| e.a == op2_trace::pack2(0, 1) && unpack2(e.b) == (0, 0)));
    for e in &sends {
        let (epoch, _seq) = unpack2(e.b);
        assert_eq!(epoch, 0, "no recovery happened, epoch stays 0");
        assert!(e.end_ns >= e.start_ns);
    }

    assert!(timeline.of_kind(EventKind::FabricRecv).count() >= 2);
    // Both ranks record the barrier with the full group size.
    let barriers: Vec<_> = timeline.of_kind(EventKind::FabricBarrier).collect();
    assert_eq!(barriers.len(), 2);
    for e in &barriers {
        let (_rank, group) = unpack2(e.a);
        assert_eq!(group, 2);
    }
    assert_eq!(timeline.of_kind(EventKind::FabricAllreduce).count(), 2);
}

/// The one receive path records one `FabricRecv` per delivered message: a
/// `try_recv` poll that finds nothing records no span, each delivery records
/// exactly one carrying its seq, and a failed blocking `recv` still records
/// its span, with seq `u32::MAX`.
#[test]
fn receive_spans_count_deliveries_and_failed_recvs() {
    let cfg = CommConfig { recv_deadline: Duration::from_millis(50), ..CommConfig::default() };
    let collector = Collector::start();
    let run = Fabric::builder(2)
        .config(cfg)
        .launch(|comm| {
            if comm.rank() == 0 {
                comm.barrier().unwrap();
                comm.send(1, 5, vec![1.0]).unwrap();
                comm.send(1, 5, vec![2.0]).unwrap();
                return Ok::<u32, CommError>(0);
            }
            // Rank 0 sends only after the barrier: these polls find nothing.
            for _ in 0..3 {
                assert_eq!(comm.try_recv(0, 5).unwrap(), None);
            }
            comm.barrier().unwrap();
            let (mut got, mut empty) = (Vec::new(), 3);
            while got.len() < 2 {
                match comm.try_recv(0, 5).unwrap() {
                    Some(p) => got.push(p[0]),
                    None => {
                        empty += 1;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            }
            assert_eq!(got, vec![1.0, 2.0]);
            // Nothing more is coming: the blocking receive fails.
            assert!(matches!(comm.recv(0, 6), Err(CommError::Timeout { .. })));
            Ok(empty)
        })
        .unwrap();
    let timeline = collector.stop();

    let empty_polls: u32 = run.results.iter().map(|r| r.as_ref().copied().unwrap()).sum();
    assert!(empty_polls >= 3);
    let mut seqs: Vec<u32> = timeline
        .of_kind(EventKind::FabricRecv)
        .filter(|e| e.a == pack2(0, 1))
        .map(|e| {
            let (epoch, seq) = unpack2(e.b);
            assert_eq!(epoch, 0);
            seq
        })
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![0, 1, u32::MAX], "{empty_polls} empty polls recorded spans");
}
