//! The generators: deterministic per seed, different across seeds, and
//! always inside the trace-file schema `sti::parse_trace` accepts.

use sti_benchmark::gen::{self, Generated, Pool};
use sti_benchmark::rng::Rng;

fn pool() -> Pool {
    let mut rng = Rng::new(7, 7);
    Pool::new((0..24).map(|i| {
        let len = 3 + rng.below(9) as usize;
        ((0..len).map(|_| 1 + rng.below(500) as u32).collect(), i % 2)
    }))
}

fn every_generator(pool: &Pool, seed: u64) -> Vec<Generated> {
    vec![
        gen::solo_segment(pool, seed, 0, 40),
        gen::solo_segment(pool, seed, 5, 40),
        gen::burst_round(pool, seed, 0),
        gen::burst_round(pool, seed, gen::WARMUP_ROUND),
        gen::recurrent_round(pool, seed, 3),
        gen::fleet_cycle(pool, seed, 0),
        gen::fleet_cycle(pool, seed, 1),
    ]
}

#[test]
fn same_seed_gives_byte_identical_traces_that_parse() {
    let pool = pool();
    let (a, b) = (every_generator(&pool, 11), every_generator(&pool, 11));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.json, y.json);
        let trace = sti::parse_trace(&x.json).expect("generated traces follow the schema");
        assert_eq!(trace.clients.len(), x.clients.len());
        assert_eq!(trace.total_engagements(), x.engagements());
        for (parsed, spec) in trace.clients.iter().zip(&x.clients) {
            assert_eq!(parsed.target.as_us(), spec.target_ms * 1000);
            assert_eq!(parsed.preload_bytes, spec.preload_kb << 10);
            assert_eq!(parsed.slo.map(|s| s.as_us()), spec.slo_ms.map(|ms| ms * 1000));
            assert_eq!(parsed.arrival.as_us(), spec.arrival_us);
            assert_eq!(parsed.idle.as_us(), spec.idle_us);
            for (tokens, &pick) in parsed.engagements.iter().zip(&spec.picks) {
                assert_eq!(tokens, &pool.tokens[pick]);
            }
        }
        for (labels, spec) in x.labels.iter().zip(&x.clients) {
            assert_eq!(labels.len(), spec.picks.len());
        }
    }
}

#[test]
fn another_seed_gives_another_trace() {
    let pool = pool();
    for (x, y) in every_generator(&pool, 11).iter().zip(&every_generator(&pool, 12)) {
        assert_ne!(x.json, y.json);
    }
}

#[test]
fn rounds_do_not_depend_on_how_many_rounds_run() {
    let pool = pool();
    assert_eq!(gen::burst_round(&pool, 5, 9).json, gen::burst_round(&pool, 5, 9).json);
    assert_ne!(gen::burst_round(&pool, 5, 9).json, gen::burst_round(&pool, 5, 10).json);
}

#[test]
fn burst_members_arrive_at_one_instant_and_the_a_pair_shares_token_parity() {
    let g = gen::burst_round(&pool(), 3, 0);
    for burst in g.clients.chunks(4) {
        assert!(burst.iter().all(|c| c.arrival_us == burst[0].arrival_us));
        assert_eq!(burst[0].target_ms, burst[2].target_ms);
        assert!(
            burst[0].slo_ms.is_none() && burst[2].slo_ms.is_none() && burst[3].slo_ms.is_some()
        );
    }
}

#[test]
fn fleet_victims_follow_the_seed_and_stay_in_range() {
    let picks: Vec<usize> = (0..50).map(|c| gen::fleet_victim(9, c, 2000)).collect();
    assert!(picks.iter().all(|&v| v < 2000));
    assert_eq!(picks, (0..50).map(|c| gen::fleet_victim(9, c, 2000)).collect::<Vec<_>>());
    assert_ne!(picks, (0..50).map(|c| gen::fleet_victim(10, c, 2000)).collect::<Vec<_>>());
}
