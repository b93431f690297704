//! Output checks: schedule feasibility and a determinism fingerprint.

use p2p_core::{Assignment, WelfareInstance};
use p2p_metrics::SlotMetrics;

/// Checks that `assignment` is a feasible schedule for `instance`: one
/// choice per request, each choice one of that request's own edges, and no
/// provider loaded beyond its (already throttled) capacity.
pub fn feasible(instance: &WelfareInstance, assignment: &Assignment) -> Result<(), String> {
    let choices = assignment.choices();
    if choices.len() != instance.request_count() {
        return Err(format!("{} choices for {} requests", choices.len(), instance.request_count()));
    }
    let mut load = vec![0u32; instance.provider_count()];
    for (r, choice) in choices.iter().enumerate() {
        let Some(e) = *choice else { continue };
        let edges = &instance.request(r).edges;
        let Some(edge) = edges.get(e) else {
            return Err(format!("request {r} takes edge {e} but owns only {}", edges.len()));
        };
        load[edge.provider] += 1;
    }
    for (u, (&l, p)) in load.iter().zip(instance.providers()).enumerate() {
        let cap = p.capacity.chunks_per_slot();
        if l > cap {
            return Err(format!("provider {u} serves {l} chunks over capacity {cap}"));
        }
    }
    Ok(())
}

/// FNV-1a over 64-bit words: the outcome fingerprint that same-seed runs
/// must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a schedule in: every request's choice, in request order.
    pub fn assignment(&mut self, assignment: &Assignment) {
        self.word(assignment.choices().len() as u64);
        for c in assignment.choices() {
            self.word(c.map_or(u64::MAX, |e| e as u64));
        }
    }

    /// Folds a slot's accounting in.
    pub fn slot(&mut self, m: &SlotMetrics) {
        self.word(m.welfare.to_bits());
        for x in [m.transfers, m.inter_isp_transfers, m.missed_chunks, m.due_chunks, m.online_peers]
        {
            self.word(x);
        }
    }

    /// The fingerprint so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};

    /// Two requests, two providers of capacity 1; request 0 owns one edge
    /// (to provider 0), request 1 owns two (to providers 0 and 1).
    fn instance() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(10), 1);
        let u1 = b.add_provider(PeerId::new(11), 1);
        let r0 = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
        let r1 = b.add_request(RequestId::new(PeerId::new(1), ChunkId::new(VideoId::new(0), 1)));
        b.add_edge(r0, u0, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        b.add_edge(r1, u0, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        b.add_edge(r1, u1, Valuation::new(5.0), Cost::new(2.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn accepts_a_feasible_schedule() {
        let inst = instance();
        assert_eq!(feasible(&inst, &Assignment::new(vec![Some(0), Some(1)])), Ok(()));
        assert_eq!(feasible(&inst, &Assignment::new(vec![None, None])), Ok(()));
    }

    #[test]
    fn rejects_an_over_capacity_schedule() {
        // Both requests on provider 0, whose capacity is one chunk.
        let err = feasible(&instance(), &Assignment::new(vec![Some(0), Some(0)])).unwrap_err();
        assert!(err.contains("over capacity"), "{err}");
    }

    #[test]
    fn rejects_a_foreign_edge() {
        // Edge 1 exists only in request 1's list.
        let err = feasible(&instance(), &Assignment::new(vec![Some(1), None])).unwrap_err();
        assert!(err.contains("owns only 1"), "{err}");
    }

    #[test]
    fn rejects_a_wrong_length_schedule() {
        assert!(feasible(&instance(), &Assignment::new(vec![Some(0)])).is_err());
    }

    #[test]
    fn fingerprint_separates_schedules() {
        let hash = |a: &Assignment| {
            let mut h = Fnv::default();
            h.assignment(a);
            h.finish()
        };
        let a = Assignment::new(vec![Some(0), None]);
        let b = Assignment::new(vec![None, Some(0)]);
        assert_eq!(hash(&a), hash(&a.clone()));
        assert_ne!(hash(&a), hash(&b));
    }
}
