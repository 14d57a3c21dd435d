//! Property-based tests on the core invariants of the reproduction.
//!
//! The container has no third-party property-testing crate available, so the
//! properties are exercised with a small deterministic pseudo-random sampler:
//! every case is reproducible from the printed seed.

use tilelink::{
    CommMapping, OverlapConfig, OverlapReport, StaticMapping, TileMapping, TileOrder, TileShape,
    TransferMode,
};
use tilelink_collectives::Comm;
use tilelink_compute::attention::{attention_reference, flash_attention};
use tilelink_compute::gemm::{matmul, matmul_tiled};
use tilelink_compute::Tensor;
use tilelink_serve::{parse_command, parse_reply, parse_stats};
use tilelink_shmem::ProcessGroup;
use tilelink_sim::{ClusterSpec, LinkCalibration, LinkClass};
use tilelink_tune::{FnOracle, SearchSpace, Strategy, TuneCache, Tuner, RING_REQUIRES_PUSH};

/// A splitmix64-style generator: deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// The static tile-centric mapping partitions the global rows exactly once,
/// maps every tile to a valid rank/channel, and its per-channel thresholds
/// sum to the tile count.
#[test]
fn static_mapping_is_a_partition() {
    let mut rng = Rng::new(0xA11CE);
    for case in 0..24 {
        let m = rng.range(1, 2048);
        let tile = rng.range(1, 256);
        let ranks = rng.range(1, 9);
        let channels = rng.range(1, 5);
        let ctx = format!("case {case}: m={m} tile={tile} ranks={ranks} channels={channels}");
        let map = StaticMapping::new(m, tile, ranks, channels);
        let mut covered = vec![false; m];
        for t in 0..map.num_tiles() {
            let rows = map.rows_of(t).unwrap();
            assert!(!rows.is_empty(), "{ctx}");
            for r in rows {
                assert!(!covered[r], "row {r} covered twice ({ctx})");
                covered[r] = true;
            }
            assert!(map.rank_of(t).unwrap() < ranks, "{ctx}");
            assert!(map.channel_of(t).unwrap() < map.num_channels(), "{ctx}");
        }
        assert!(covered.into_iter().all(|c| c), "{ctx}");
        let total: u64 = (0..map.num_channels())
            .map(|c| map.channel_threshold(c))
            .sum();
        assert_eq!(total, map.num_tiles() as u64, "{ctx}");
    }
}

/// Consumers waiting on `channels_for_rows` always cover every producer tile
/// overlapping their row range, whatever the (decoupled) consumer tile size.
#[test]
fn consumer_channels_cover_producer_tiles() {
    let mut rng = Rng::new(0xB0B);
    for case in 0..24 {
        let m = rng.range(64, 1024);
        let prod_tile = rng.range(1, 128);
        let cons_tile = rng.range(1, 256);
        let ranks = rng.range(1, 9);
        let ctx = format!("case {case}: m={m} prod={prod_tile} cons={cons_tile} ranks={ranks}");
        let map = StaticMapping::new(m, prod_tile, ranks, 2);
        let mut start = 0usize;
        while start < m {
            let rows = start..(start + cons_tile).min(m);
            let channels = map.channels_for_rows(rows.clone());
            for t in 0..map.num_tiles() {
                let trows = map.rows_of(t).unwrap();
                if trows.start < rows.end && rows.start < trows.end {
                    assert!(
                        channels.contains(&map.channel_of(t).unwrap()),
                        "tile {t} not covered for rows {rows:?} ({ctx})"
                    );
                }
            }
            start += cons_tile;
        }
    }
}

/// Tiled GEMM equals the reference GEMM for arbitrary shapes and tile sizes.
#[test]
fn tiled_gemm_matches_reference() {
    let mut rng = Rng::new(0xC0FFEE);
    for case in 0..24 {
        let m = rng.range(1, 24);
        let k = rng.range(1, 16);
        let n = rng.range(1, 24);
        let tm = rng.range(1, 16);
        let tn = rng.range(1, 16);
        let seed = rng.range(0, 1000) as u64;
        let a = Tensor::random(&[m, k], seed);
        let b = Tensor::random(&[k, n], seed + 1);
        let reference = matmul(&a, &b);
        let tiled = matmul_tiled(&a, &b, tm, tn);
        assert!(
            tiled.allclose(&reference, 1e-4),
            "case {case}: m={m} k={k} n={n} tm={tm} tn={tn} seed={seed}"
        );
    }
}

/// Flash attention equals reference attention for any KV block size — the
/// property that makes the overlapped attention kernel correct regardless
/// of the order or granularity in which remote KV tiles arrive.
#[test]
fn flash_attention_matches_reference() {
    let mut rng = Rng::new(0xF1A54);
    for case in 0..24 {
        let sq = rng.range(1, 6);
        let skv = rng.range(1, 24);
        let d = rng.range(1, 8);
        let block = rng.range(1, 16);
        let seed = rng.range(0, 1000) as u64;
        let q = Tensor::random(&[sq, d], seed);
        let k = Tensor::random(&[skv, d], seed + 1);
        let v = Tensor::random(&[skv, d], seed + 2);
        let reference = attention_reference(&q, &k, &v);
        let flash = flash_attention(&q, &k, &v, block);
        assert!(
            flash.allclose(&reference, 1e-3),
            "case {case}: sq={sq} skv={skv} d={d} block={block} seed={seed}"
        );
    }
}

/// Beam search over any constrained space is consistent with exhaustive
/// search: its winner is never *better* than the exhaustive optimum (it
/// evaluates a subset of the same candidates), and neither strategy ever
/// lets a constraint-violating or invalid configuration reach the oracle.
#[test]
fn beam_is_never_better_than_exhaustive_and_both_respect_constraints() {
    /// A deterministic synthetic makespan, non-separable across axes so the
    /// beam's coordinate descent can genuinely get stuck short of the optimum.
    fn price(cfg: &OverlapConfig) -> f64 {
        let tile = cfg.compute_tile.numel() as f64;
        let comm = cfg.comm_tile.numel() as f64;
        let order = match cfg.order {
            TileOrder::Ring => 0.85,
            TileOrder::AllToAll => 1.0,
        };
        let mode = match cfg.mode {
            TransferMode::Push => 0.95,
            TransferMode::Pull => 1.0,
        };
        let sms = cfg.comm_mapping.comm_sms() as f64;
        (1e9 / tile + 3e4 / comm.sqrt()) * order * mode
            + sms * (cfg.num_stages as f64) * 1.7e2
            + cfg.channels_per_rank as f64 * 31.0
    }

    let comm_tiles = [
        TileShape::new(64, 64),
        TileShape::new(128, 128),
        TileShape::new(256, 128),
    ];
    let compute_tiles = [
        TileShape::new(64, 128),
        TileShape::new(128, 128),
        TileShape::new(128, 256),
    ];
    let mappings = [
        CommMapping::CopyEngine,
        CommMapping::Sm { sms: 8 },
        CommMapping::Sm { sms: 40 },
        CommMapping::Hybrid { sms: 20 },
    ];
    let cluster = ClusterSpec::h800_node(8);
    let sm_count = cluster.gpu.sm_count;

    let mut rng = Rng::new(0xBEA2);
    for case in 0..10 {
        // A random small sub-space; always both orders and modes so the
        // ring+pull constraint has pairs to prune. Every axis keeps the
        // default config's value in its candidate list, because the beam
        // always seeds from the default — a space excluding the seed would
        // let the beam (legitimately) explore outside the enumerated product
        // and beat the exhaustive optimum.
        let default = OverlapConfig::default();
        let pick = |rng: &mut Rng, n: usize| {
            let lo = rng.range(0, n);
            let hi = rng.range(lo + 1, n + 1);
            lo..hi
        };
        fn with_default<T: PartialEq>(mut subset: Vec<T>, default: T) -> Vec<T> {
            if !subset.contains(&default) {
                subset.push(default);
            }
            subset
        }
        let space = SearchSpace::new()
            .with_comm_tiles(with_default(
                comm_tiles[pick(&mut rng, comm_tiles.len())].to_vec(),
                default.comm_tile,
            ))
            .with_compute_tiles(with_default(
                compute_tiles[pick(&mut rng, compute_tiles.len())].to_vec(),
                default.compute_tile,
            ))
            .with_orders([TileOrder::AllToAll, TileOrder::Ring])
            .with_modes([TransferMode::Pull, TransferMode::Push])
            .with_mappings(with_default(
                mappings[pick(&mut rng, mappings.len())].to_vec(),
                default.comm_mapping,
            ))
            .with_stages(with_default(
                (2..=rng.range(2, 5)).collect::<Vec<_>>(),
                default.num_stages,
            ))
            .with_constraint(RING_REQUIRES_PUSH);
        let width = rng.range(1, 4);
        let sweeps = rng.range(1, 4);
        let ctx = format!("case {case}: width={width} sweeps={sweeps}");

        let oracle = FnOracle::new("prop", cluster.clone(), |cfg| {
            let t = price(cfg);
            Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
        });
        let exhaustive = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &space)
            .unwrap();
        let beam = Tuner::new(Strategy::Beam { width, sweeps })
            .tune(&oracle, &space)
            .unwrap();

        // Beam evaluates a subset of the exhaustive candidates, so it can tie
        // the optimum but never beat it.
        assert!(
            beam.best.report.total_s >= exhaustive.best.report.total_s,
            "{ctx}: beam {} < exhaustive {}",
            beam.best.report.total_s,
            exhaustive.best.report.total_s
        );
        // Neither search may evaluate a constraint-violating or invalid
        // config — pruning happens before the oracle, not after.
        for (which, report) in [("exhaustive", &exhaustive), ("beam", &beam)] {
            assert!(!report.ranked.is_empty(), "{ctx} {which}");
            for c in &report.ranked {
                assert!(
                    c.config.order != TileOrder::Ring || c.config.mode == TransferMode::Push,
                    "{ctx}: {which} evaluated ring+pull {}",
                    c.config.cache_key()
                );
                c.config
                    .validate(sm_count)
                    .unwrap_or_else(|e| panic!("{ctx}: {which} evaluated invalid config: {e}"));
            }
        }
    }
}

/// AllGather followed by element-wise summation equals AllReduce, and
/// ReduceScatter shards concatenate to the AllReduce result — the standard
/// collective algebra the TP layers rely on.
#[test]
fn collective_algebra_holds() {
    let mut rng = Rng::new(0xD15C0);
    for case in 0..8 {
        let world = rng.range(2, 5);
        let len_per = rng.range(1, 5);
        let seed = rng.range(0, 100) as u64;
        let len = world * len_per;
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| Tensor::random(&[len, 1], seed + r as u64).data().to_vec())
            .collect();
        let inputs2 = inputs.clone();
        let results = ProcessGroup::launch(world, move |ctx| {
            let rank = ctx.rank();
            let mut comm = Comm::new(ctx);
            let ar = comm.all_reduce(&inputs2[rank]);
            let rs = comm.reduce_scatter(&inputs2[rank]);
            let rs_gathered = comm.all_gather(&rs);
            (ar, rs_gathered)
        });
        for (ar, rs_gathered) in results {
            for (a, b) in ar.iter().zip(&rs_gathered) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "case {case}: world={world} len_per={len_per} seed={seed}"
                );
            }
        }
    }
}

/// Values that break naive parsers: empty, signs, non-finite and overflowing
/// numbers, zero and out-of-range counts, separators and non-ASCII text.
const NASTY: [&str; 24] = [
    "",
    "=",
    "x=y=z",
    "-1",
    "0",
    "-0",
    "NaN",
    "-NaN",
    "inf",
    "-inf",
    "1e309",
    "18446744073709551616",
    "p0",
    "p101",
    "zipf:",
    "zipf:-1",
    "hot:0",
    "h800x0",
    "h800x18446744073709551615x18446744073709551615",
    "samples=65",
    "seed=-1",
    "\t",
    "é\u{0}",
    "  ",
];

/// Up to 48 random bytes, decoded lossily (the parsers take text).
fn random_text(rng: &mut Rng) -> String {
    let bytes: Vec<u8> = (0..rng.range(0, 49))
        .map(|_| rng.next_u64() as u8)
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One fuzz input: random bytes (one case in four) or a token-level mutation
/// of a valid `seed` line split on `sep`. A mutation drops, duplicates, swaps
/// or replaces tokens (with a [`NASTY`] value, a nasty `key=value` value or
/// random bytes), then maybe truncates the line.
fn fuzz_line(rng: &mut Rng, seeds: &[&str], sep: char) -> String {
    if rng.range(0, 4) == 0 {
        return random_text(rng);
    }
    let seed = seeds[rng.range(0, seeds.len())];
    let mut tokens: Vec<String> = seed.split(sep).map(String::from).collect();
    for _ in 0..rng.range(1, 4) {
        let i = rng.range(0, tokens.len());
        match rng.range(0, 6) {
            0 if tokens.len() > 1 => drop(tokens.remove(i)),
            1 => tokens.insert(i, tokens[i].clone()),
            2 => {
                let j = rng.range(0, tokens.len());
                tokens.swap(i, j);
            }
            3 => tokens[i] = NASTY[rng.range(0, NASTY.len())].to_string(),
            4 => {
                let key = tokens[i].split('=').next().unwrap_or("").to_string();
                tokens[i] = format!("{key}={}", NASTY[rng.range(0, NASTY.len())]);
            }
            _ => tokens[i] = random_text(rng),
        }
    }
    let mut line = tokens.join(&sep.to_string());
    if rng.range(0, 4) == 0 {
        let mut cut = rng.range(0, line.len() + 1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        line.truncate(cut);
    }
    line
}

/// The daemon's wire grammar is untrusted input: fuzzed request, reply and
/// `STATS` lines parse or return `Err`, and never panic.
#[test]
fn wire_parsers_survive_fuzzed_lines() {
    let requests = [
        "TUNE workload=MoE-3 cluster=h800x8x2 routing=zipf:1.2 samples=4 seed=99 objective=p95",
        "TUNE workload=MLP-1 cluster=a100x4",
        "TUNE workload=MoE-1 routing=hot:2 objective=worst",
        "PING",
        "STATS",
    ];
    let stats = "warm=12 cold=3 deduped=5 inflight=2 cached=7 evictions=4 pool_queued=6 \
                 pool_active=8 pool_rejected=9";
    let stats_reply = format!("STATS {stats}");
    let replies = [
        "OK workload=MoE-1 source=warm config=ct128x128-gt256x256 total_ms=1.250000 \
         comm_ms=0.500000 comp_ms=1.000000 evals=17 cache_hits=3",
        "ERR unknown workload \"MLP-9\"",
        "PONG",
        &stats_reply,
    ];
    let mut rng = Rng::new(0xF0221);
    let (mut parsed, mut rejected) = (0, 0);
    for _ in 0..3000 {
        for ok in [
            parse_command(&fuzz_line(&mut rng, &requests, ' ')).is_ok(),
            parse_reply(&fuzz_line(&mut rng, &replies, ' ')).is_ok(),
            parse_stats(&fuzz_line(&mut rng, &[stats], ' ')).is_ok(),
        ] {
            if ok {
                parsed += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // The mutations reach both outcomes, not only the first token check.
    assert!(
        parsed > 500 && rejected > 500,
        "{parsed} parsed, {rejected} rejected"
    );
}

/// The calibration TSV is untrusted input: a fuzzed table loads or returns
/// `Err`, never panics, and a table that loads prices every transfer with a
/// finite, non-negative α and an achieved fraction in (0, 1].
#[test]
fn calibration_loader_survives_fuzzed_tables() {
    let table = LinkCalibration::h800_defaults().to_tsv();
    let lines: Vec<&str> = table.lines().collect();
    let mut rng = Rng::new(0xCA1B);
    let (mut loaded, mut rejected) = (0, 0);
    for _ in 0..1500 {
        let mut text: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        for _ in 0..rng.range(1, 3) {
            let i = rng.range(0, text.len());
            text[i] = fuzz_line(&mut rng, &[lines[i]], '\t');
        }
        let Ok(cal) = LinkCalibration::from_tsv(&text.join("\n")) else {
            rejected += 1;
            continue;
        };
        loaded += 1;
        for class in LinkClass::ALL {
            for b in cal.class(class) {
                assert!(b.alpha_us.is_finite() && b.alpha_us >= 0.0, "{b:?}");
                assert!(b.achieved_frac > 0.0 && b.achieved_frac <= 1.0, "{b:?}");
                assert!(b.max_bytes > 0.0, "{b:?}");
            }
        }
    }
    assert!(
        loaded > 20 && rejected > 100,
        "{loaded} loaded, {rejected} rejected"
    );
}

/// The tune-cache TSV is untrusted input, and its values are trusted without
/// re-pricing: a fuzzed file opens (skipping the lines it cannot use) or
/// returns `Err`, never panics, and every value it then serves is a
/// plausible time — a finite, positive total and a finite, non-negative
/// comm/compute split.
#[test]
fn tune_cache_serves_only_plausible_values_from_fuzzed_files() {
    let dir = std::env::temp_dir().join(format!("tilelink-fuzz-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.tsv");
    let seeds = [
        "mlp|h800x8|analytic-v2|mean|ct128x128-gt128x256\t1.25e-3",
        "moe|h800x8|analytic-v2|p95|ct64x64-gt128x128\t1.25e-3\t5e-4\t1e-3",
    ];
    let mut rng = Rng::new(0xCAC4E);
    let mut served = 0;
    for _ in 0..400 {
        let text: Vec<String> = (0..rng.range(1, 8))
            .map(|_| fuzz_line(&mut rng, &seeds, '\t'))
            .collect();
        let text = text.join("\n");
        std::fs::write(&path, &text).unwrap();
        let cache = TuneCache::open(&path).expect("a readable UTF-8 file opens");
        for key in text.lines().filter_map(|l| l.split('\t').next()) {
            if let Some(total) = cache.total(key) {
                assert!(total.is_finite() && total > 0.0, "{key:?}: {total}");
                served += 1;
            }
            if let Some(r) = cache.get(key) {
                assert!(r.total_s.is_finite() && r.total_s > 0.0, "{key:?}: {r:?}");
                for part in [r.comm_only_s, r.comp_only_s] {
                    assert!(part.is_finite() && part >= 0.0, "{key:?}: {r:?}");
                }
            }
        }
    }
    assert!(served > 100, "only {served} values served");
    // Raw bytes that are not UTF-8 make the whole file unreadable: a loud
    // error, not a panic.
    std::fs::write(&path, [0x66, 0xff, 0x09, 0x31]).unwrap();
    assert!(TuneCache::open(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
