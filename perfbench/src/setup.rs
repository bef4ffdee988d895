//! Workload definitions, seed derivation, input generation and the
//! publish&map output oracle.

use crate::stats::splitmix64;
use std::time::Duration;
use xdx_core::{greedy, DataExchange, Fragmentation, WireFormat};
use xdx_net::{FaultProfile, Link, NetworkProfile};
use xdx_relational::Database;
use xdx_runtime::{ExchangeRequest, PublishRequest, Runtime, RuntimeConfig, SessionState};
use xdx_xml::SchemaTree;

/// Closed-loop clients (each waits for its reply), all driven in turn
/// from one load thread.
pub const CLIENTS: usize = 2;
/// Runtime worker threads.
pub const WORKERS: usize = 2;
/// Subscribers of every `fanout` publish.
pub const FANOUT: usize = 8;
/// Chunk-drop probability of `exchange` links.
pub const DROP_PROBABILITY: f64 = 0.02;
/// Percent of items `churn` rewrites between `resync` rounds.
pub const CHURN_PCT: u32 = 5;
/// Documents in a client's resync chain; each is one churn step from
/// the one before.
const RESYNC_CHAIN: usize = 5;
/// Chain positions a client's rounds visit, back and forth, so every
/// round is exactly one churn step from the last: d0 → d1 → … → d4 → d3
/// → … → d0. The warm-up ships d0.
const RESYNC_CYCLE: [usize; 8] = [1, 2, 3, 4, 3, 2, 1, 0];
/// First session id of the timed requests. Ids stay below ten times
/// this for up to 90 000 sessions in one process.
const SESSION_ID_FLOOR: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Exchange,
    Fanout,
    Resync,
    PmBaseline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Exchange,
        Workload::Fanout,
        Workload::Resync,
        Workload::PmBaseline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exchange => "exchange",
            Workload::Fanout => "fanout",
            Workload::Resync => "resync",
            Workload::PmBaseline => "pm-baseline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn uses_runtime(self) -> bool {
        self != Workload::PmBaseline
    }

    /// Percentile `latency_tail_ms` reports: the highest standard one
    /// with at least ten samples beyond it at this workload's request
    /// rate in a 25-second run.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Exchange | Workload::PmBaseline => 75.0,
            Workload::Resync => 90.0,
            Workload::Fanout => 95.0,
        }
    }

    /// Requests every client completes before a run may end. The count
    /// metrics are means over exactly these requests, so they repeat
    /// exactly for a seed; a whole number of each client's periods.
    pub fn counted_requests(self) -> usize {
        match self {
            // Each request draws its own fault stream: enough of them
            // that the modelled wire time is steady across seeds.
            Workload::Exchange => 32,
            Workload::Fanout | Workload::Resync => 8,
            Workload::PmBaseline => 4,
        }
    }
}

/// Document sizes. The benchmark runs [`Sizes::FULL`]; tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub exchange_doc: usize,
    pub fanout_doc: usize,
    /// Documents each fanout client cycles through.
    pub fanout_pool: usize,
    pub resync_doc: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        exchange_doc: 2_500_000,
        fanout_doc: 60_000,
        fanout_pool: 4,
        resync_doc: 1_000_000,
    };
}

/// Every stream of randomness in a run, derived from the one `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub run: u64,
    /// XMark generator seeds derive from this.
    pub generator: u64,
    /// `churn` seeds derive from this.
    pub churn: u64,
    /// Link fault streams derive from this.
    pub fault: u64,
}

impl Seeds {
    pub fn derive(run: u64) -> Seeds {
        Seeds {
            run,
            generator: splitmix64(run ^ 0x6765_6e65_7261_746f),
            churn: splitmix64(run ^ 0x6368_7572_6e00_0000),
            fault: splitmix64(run ^ 0x6661_756c_7400_0000),
        }
    }

    /// Generator seed of a client's `k`-th document.
    pub fn doc(&self, client: usize, k: usize) -> u64 {
        splitmix64(self.generator ^ ((client as u64) << 32 | k as u64))
    }

    /// Churn seed of a client's `k`-th chain step.
    pub fn churn_step(&self, client: usize, k: usize) -> u64 {
        splitmix64(self.churn ^ ((client as u64) << 32 | k as u64))
    }

    /// Fault-stream seed of a client's `i`-th request.
    pub fn fault_request(&self, client: usize, i: usize) -> u64 {
        splitmix64(self.fault ^ ((client as u64) << 32 | i as u64))
    }
}

/// The placement a reference target is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The two-site greedy plan of `DataExchange::run`.
    TwoSite,
    /// The k-site greedy placement of a 1→N publish.
    KSite(usize),
}

/// One request of a client's period.
#[derive(Debug, Clone)]
pub struct Step {
    /// Index into [`Client::sources`].
    pub source: usize,
    /// Fingerprint every delivered target of this request must have.
    pub expected: u64,
    /// Per-request wire format (`None`: the route's negotiated format).
    pub format: Option<WireFormat>,
}

/// One closed-loop client: its route, its prepared sources and the
/// period of requests it repeats.
#[derive(Debug)]
pub struct Client {
    pub source_frag: Fragmentation,
    pub target_frag: Fragmentation,
    pub source_endpoint: String,
    /// One target endpoint for two-site sessions, [`FANOUT`] for publishes.
    pub target_endpoints: Vec<String>,
    /// Pre-shredded source databases; each request clones one.
    pub sources: Vec<Database>,
    /// Index into [`Setup::docs`] of each source.
    pub docs: Vec<usize>,
    pub steps: Vec<Step>,
}

impl Client {
    /// Requests before the client's steps repeat.
    pub fn period(&self) -> usize {
        self.steps.len()
    }
}

/// Everything built before the first timed request.
pub struct Setup {
    pub workload: Workload,
    pub seeds: Seeds,
    pub schema: SchemaTree,
    pub docs: Vec<String>,
    pub clients: Vec<Client>,
    pub runtime: Option<Runtime>,
}

/// FNV-64 over a database's tables, in name order, each as its feed's
/// canonical wire text.
pub fn fingerprint(db: &Database) -> u64 {
    let mut hash = xdx_net::Fnv64::new();
    for name in db.table_names() {
        hash.write(name.as_bytes());
        hash.write(&[0]);
        let table = db.table(name).expect("listed table exists");
        hash.write(table.data.to_wire().as_bytes());
    }
    hash.finish()
}

/// Fingerprints of one checked reference pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// The data-exchange target of the requested plan shape.
    pub de: u64,
    /// The publish&map target. Its tables hold the same document but
    /// may be laid out differently, so publish&map runs compare to it.
    pub pm: u64,
}

/// Builds the reference target of exchanging `source` from `source_frag`
/// to `target_frag` with the given plan shape, checks it against
/// publish&map by re-publishing both targets to XML, and returns both
/// targets' fingerprints.
pub fn reference(
    schema: &SchemaTree,
    source: &Database,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    shape: Shape,
) -> Result<Reference, String> {
    let mut de_target = build_de_target(schema, source, source_frag, target_frag, shape)?;
    let mut pm_source = source.clone();
    let mut pm_target = Database::new("pm-reference");
    xdx_core::pm::publish_and_map(
        schema,
        source_frag,
        target_frag,
        &mut pm_source,
        &mut pm_target,
        &mut Link::new(NetworkProfile::lan()),
    )
    .map_err(|e| format!("publish&map reference: {e}"))?;
    let fps = Reference {
        de: fingerprint(&de_target),
        pm: fingerprint(&pm_target),
    };
    check_against_pm(schema, target_frag, &mut de_target, &mut pm_target)?;
    Ok(fps)
}

pub fn build_de_target(
    schema: &SchemaTree,
    source: &Database,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    shape: Shape,
) -> Result<Database, String> {
    let mut source = source.clone();
    let mut target = Database::new("de-reference");
    let mut link = Link::new(NetworkProfile::lan());
    let exchange = DataExchange::new(schema, source_frag.clone(), target_frag.clone());
    match shape {
        Shape::TwoSite => {
            exchange
                .run(&mut source, &mut target, &mut link)
                .map_err(|e| format!("DE reference: {e}"))?;
        }
        Shape::KSite(fanout) => {
            let model = exchange.probe(&source).map_err(|e| format!("probe: {e}"))?;
            let gen = xdx_core::gen::Generator::new(schema, source_frag, target_frag);
            let program =
                greedy::greedy_program(&gen, &model).map_err(|e| format!("greedy: {e}"))?;
            let (placed, _) = xdx_core::ksite_greedy(schema, &model, &program, fanout)
                .map_err(|e| format!("k-site placement: {e}"))?;
            xdx_core::exec::execute(
                schema,
                source_frag,
                target_frag,
                &placed,
                &mut source,
                &mut target,
                &mut link,
            )
            .map_err(|e| format!("k-site reference: {e}"))?;
        }
    }
    Ok(target)
}

/// The oracle: both targets re-published to XML must be identical.
pub fn check_against_pm(
    schema: &SchemaTree,
    target_frag: &Fragmentation,
    candidate: &mut Database,
    pm_target: &mut Database,
) -> Result<(), String> {
    let publish = |db: &mut Database| {
        xdx_core::publish::publish(schema, target_frag, db)
            .map(|p| p.xml)
            .map_err(|e| format!("re-publish: {e}"))
    };
    if publish(candidate)? == publish(pm_target)? {
        Ok(())
    } else {
        Err(format!(
            "target in {} differs from the publish&map target",
            target_frag.name
        ))
    }
}

fn load(doc: &str, schema: &SchemaTree, frag: &Fragmentation) -> Result<Database, String> {
    xdx_xmark::load_source(doc, schema, frag).map_err(|e| format!("load source: {e}"))
}

fn generate(bytes: usize, seed: u64) -> String {
    xdx_xmark::generate(xdx_xmark::GenConfig {
        target_bytes: bytes,
        seed,
    })
}

impl Setup {
    /// Generates the inputs, builds and checks every reference, starts
    /// the runtime and makes one untimed warm-up request per client.
    pub fn build(workload: Workload, seeds: Seeds, sizes: Sizes) -> Result<Setup, String> {
        let schema = xdx_xmark::schema();
        let mf = xdx_xmark::mf(&schema);
        let lf = xdx_xmark::lf(&schema);
        let mut docs = Vec::new();
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let client = match workload {
                Workload::Exchange | Workload::PmBaseline => {
                    // Client 0 runs MF→LF, client 1 LF→MF, each on its
                    // own document and route.
                    let (sf, tf) = if c == 0 {
                        (mf.clone(), lf.clone())
                    } else {
                        (lf.clone(), mf.clone())
                    };
                    docs.push(generate(sizes.exchange_doc, seeds.doc(c, 0)));
                    let source = load(docs.last().expect("pushed"), &schema, &sf)?;
                    let refs = reference(&schema, &source, &sf, &tf, Shape::TwoSite)?;
                    let steps = if workload == Workload::Exchange {
                        // Wire format alternates by request.
                        [WireFormat::Columnar, WireFormat::Xml]
                            .into_iter()
                            .map(|format| Step {
                                source: 0,
                                expected: refs.de,
                                format: Some(format),
                            })
                            .collect()
                    } else {
                        vec![Step {
                            source: 0,
                            expected: refs.pm,
                            format: None,
                        }]
                    };
                    Client {
                        source_frag: sf,
                        target_frag: tf,
                        source_endpoint: format!("site-{c}"),
                        target_endpoints: vec![format!("peer-{c}")],
                        sources: vec![source],
                        docs: vec![docs.len() - 1],
                        steps,
                    }
                }
                Workload::Fanout => {
                    let mut sources = Vec::new();
                    let mut doc_ids = Vec::new();
                    let mut steps = Vec::new();
                    for k in 0..sizes.fanout_pool {
                        docs.push(generate(sizes.fanout_doc, seeds.doc(c, k)));
                        let source = load(docs.last().expect("pushed"), &schema, &mf)?;
                        let refs = reference(&schema, &source, &mf, &lf, Shape::KSite(FANOUT))?;
                        steps.push(Step {
                            source: k,
                            expected: refs.de,
                            format: None,
                        });
                        sources.push(source);
                        doc_ids.push(docs.len() - 1);
                    }
                    Client {
                        source_frag: mf.clone(),
                        target_frag: lf.clone(),
                        source_endpoint: format!("origin-{c}"),
                        target_endpoints: (0..FANOUT).map(|s| format!("sub-{c}-{s}")).collect(),
                        sources,
                        docs: doc_ids,
                        steps,
                    }
                }
                Workload::Resync => {
                    let mut chain = vec![generate(sizes.resync_doc, seeds.doc(c, 0))];
                    for k in 1..RESYNC_CHAIN {
                        let next = xdx_xmark::churn(
                            chain.last().expect("seeded"),
                            CHURN_PCT,
                            seeds.churn_step(c, k),
                        );
                        chain.push(next);
                    }
                    let mut sources = Vec::new();
                    let mut expected = Vec::new();
                    let mut doc_ids = Vec::new();
                    for doc in chain {
                        let source = load(&doc, &schema, &mf)?;
                        expected.push(reference(&schema, &source, &mf, &lf, Shape::TwoSite)?.de);
                        sources.push(source);
                        docs.push(doc);
                        doc_ids.push(docs.len() - 1);
                    }
                    Client {
                        source_frag: mf.clone(),
                        target_frag: lf.clone(),
                        source_endpoint: format!("origin-{c}"),
                        target_endpoints: vec![format!("replica-{c}")],
                        sources,
                        docs: doc_ids,
                        steps: RESYNC_CYCLE
                            .iter()
                            .map(|&k| Step {
                                source: k,
                                expected: expected[k],
                                format: None,
                            })
                            .collect(),
                    }
                }
            };
            clients.push(client);
        }
        let mut setup = Setup {
            workload,
            seeds,
            schema,
            docs,
            clients,
            runtime: None,
        };
        if workload.uses_runtime() {
            let mut config = RuntimeConfig::default().with_workers(WORKERS);
            if workload == Workload::Exchange {
                config =
                    config.with_fault_profile(FaultProfile::drops(DROP_PROBABILITY, seeds.fault));
            }
            setup.runtime = Some(Runtime::start(setup.schema.clone(), config));
            setup.warm_up()?;
        }
        Ok(setup)
    }

    /// One full, healthy-link session per client: fills the plan cache
    /// and, for `resync`, establishes feed version 1 from chain position 0.
    /// Then moves the runtime's session ids up to [`SESSION_ID_FLOOR`].
    fn warm_up(&self) -> Result<(), String> {
        let runtime = self.runtime.as_ref().expect("runtime workloads only");
        let mut last_id = 0;
        for client in &self.clients {
            let handles = match self.workload {
                Workload::Fanout => {
                    runtime
                        .publish(
                            PublishRequest::new(
                                "warm-up",
                                client.sources[0].clone(),
                                client.source_frag.clone(),
                                client.target_frag.clone(),
                                client.target_endpoints.clone(),
                            )
                            .with_source_endpoint(client.source_endpoint.clone()),
                        )
                        .map_err(|e| format!("warm-up: {e}"))?
                        .handles
                }
                _ => {
                    runtime.set_link_fault_profile(
                        &client.source_endpoint,
                        &client.target_endpoints[0],
                        FaultProfile::healthy(),
                    );
                    let request = ExchangeRequest::new(
                        "warm-up",
                        client.sources[0].clone(),
                        client.source_frag.clone(),
                        client.target_frag.clone(),
                    )
                    .with_route(
                        client.source_endpoint.clone(),
                        client.target_endpoints[0].clone(),
                    );
                    vec![runtime
                        .submit(request)
                        .map_err(|e| format!("warm-up: {e}"))?]
                }
            };
            let expected = match self.workload {
                // Position 0 of the chain is what the warm-up ships.
                Workload::Resync => client.steps[RESYNC_CYCLE.len() - 1].expected,
                _ => client.steps[0].expected,
            };
            for handle in handles {
                last_id = last_id.max(handle.id());
                let result = handle.wait();
                if result.state != SessionState::Done {
                    return Err(format!("warm-up failed: {:?}", result.diagnostic));
                }
                let target = result
                    .target
                    .as_ref()
                    .ok_or("warm-up delivered no target")?;
                if fingerprint(target) != expected {
                    return Err("warm-up target differs from its reference".into());
                }
            }
        }
        // Chunk headers carry the session id in decimal, so a request's
        // wire bytes depend on its id's digit count. Ids keep growing
        // from one run to the next in a process (the traced pass makes a
        // second run); keeping every timed id between one power of ten
        // and the next makes wire bytes repeat exactly for a seed.
        // Requests whose deadline cannot be met are refused at admission
        // after taking an id, so they advance the counter without
        // running.
        let client = &self.clients[0];
        for _ in last_id + 1..SESSION_ID_FLOOR {
            let burn = ExchangeRequest::new(
                "id-floor",
                Database::new("id-floor"),
                client.source_frag.clone(),
                client.target_frag.clone(),
            )
            .with_route(
                client.source_endpoint.clone(),
                client.target_endpoints[0].clone(),
            )
            .with_deadline(Duration::from_nanos(1));
            if let Ok(handle) = runtime.submit(burn) {
                // Admitted after all: it is shed at dequeue, unrun.
                handle.wait();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_derive_distinct_streams() {
        let a = Seeds::derive(1);
        assert_eq!(a, Seeds::derive(1));
        assert_ne!(a, Seeds::derive(2));
        assert_ne!(a.generator, a.churn);
        assert_ne!(a.churn, a.fault);
        assert_ne!(a.doc(0, 0), a.doc(1, 0));
        assert_ne!(a.fault_request(0, 1), a.fault_request(0, 2));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// The oracle catches a delivered target with one row altered: its
    /// fingerprint moves off the reference, and re-publishing it no
    /// longer matches publish&map.
    #[test]
    fn oracle_catches_one_altered_row() {
        let schema = xdx_xmark::schema();
        let mf = xdx_xmark::mf(&schema);
        let lf = xdx_xmark::lf(&schema);
        let doc = generate(20_000, 3);
        let source = load(&doc, &schema, &mf).unwrap();
        let expected = reference(&schema, &source, &mf, &lf, Shape::TwoSite)
            .unwrap()
            .de;

        let mut delivered = build_de_target(&schema, &source, &mf, &lf, Shape::TwoSite).unwrap();
        assert_eq!(fingerprint(&delivered), expected);

        // Alter one string cell of one row of the item table.
        let item_table = delivered
            .table_names()
            .into_iter()
            .find(|n| n.to_lowercase().contains("item"))
            .expect("LF has an item fragment")
            .to_string();
        let (table, _) = delivered.table_mut(&item_table).unwrap();
        let cell = table.data.rows[0]
            .iter_mut()
            .find(|v| matches!(v, xdx_relational::Value::Str(_)))
            .expect("item rows carry text");
        *cell = xdx_relational::Value::Str("altered".into());

        assert_ne!(fingerprint(&delivered), expected);
        let mut pm_source = source.clone();
        let mut pm_target = Database::new("pm");
        xdx_core::pm::publish_and_map(
            &schema,
            &mf,
            &lf,
            &mut pm_source,
            &mut pm_target,
            &mut Link::new(NetworkProfile::lan()),
        )
        .unwrap();
        assert!(check_against_pm(&schema, &lf, &mut delivered, &mut pm_target).is_err());
    }
}
