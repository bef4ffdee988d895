//! Execution of placed data-transfer programs (Figure 2, Step 4: the
//! agency "assigns operations to the source and the target that generate
//! and execute code on their internal data structures").
//!
//! Operations run against real [`Database`] instances; a feed crossing a
//! cross-edge is serialized to its wire form, framed as an HTTP POST (the
//! SOAP-over-HTTP deployment of the paper's WSDL binding; bulk fragment
//! payloads ride as the POST body rather than being re-escaped into the
//! envelope), and shipped over the simulated [`Link`]. Wall-clock time is
//! attributed to the step taxonomy of [`crate::report::StepTimes`];
//! communication time is the link's simulated duration, so measurements
//! are reproducible regardless of host speed.

use crate::error::{Error, Result};
use crate::fragment::Fragmentation;
use crate::program::{Location, Op, PortRef, Program};
use crate::report::StepTimes;
use crate::selection::Selection;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};
use xdx_codec::{decode_any, encode_in_format_into, WireFormat};
use xdx_net::http::Request;
use xdx_net::Link;
use xdx_relational::ops::{merge_combine, split, SplitSpec};
use xdx_relational::Dewey as WireDewey;
use xdx_relational::{Database, Feed};
use xdx_xml::SchemaTree;

/// How serialized cross-edge messages reach the target system.
///
/// [`execute`] ships straight over a [`Link`]; [`LoopbackTransport`]
/// keeps every message in process (the runtime computes a delta
/// session's head feeds this way). Implementations return the simulated
/// transfer duration plus the bytes as delivered at the far side (which
/// the executor then decodes, surfacing any damage as an explicit
/// error).
pub trait Transport {
    /// Ships one message; returns (simulated duration, delivered bytes).
    /// An `Err` means delivery gave up entirely (e.g. a retry budget ran
    /// out) and aborts the exchange.
    fn ship(&mut self, label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)>;

    /// The wire encoding this transport negotiated for its link. The
    /// executor serializes cross-edge feeds in this format; receivers
    /// sniff the frame (columnar magic vs. `#feed` text), so a transport
    /// may switch formats between sessions without any handshake in the
    /// data stream itself. Defaults to XML text, the universal fallback.
    fn wire_format(&self) -> WireFormat {
        WireFormat::Xml
    }
}

/// The trivial transport: one message, one transmission, whatever
/// arrives arrives.
impl Transport for Link {
    fn ship(&mut self, label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)> {
        let (duration, delivered) = self.transmit(label, message);
        Ok((duration, delivered))
    }
}

/// A transport that never leaves the process: every message arrives
/// instantly and intact. Delta exchange uses this to run the planned
/// program against a *local* scratch target — the source computes what
/// the full shipment would materialize, diffs it against the target's
/// last known version, and ships only the patch over the real link.
#[derive(Debug, Default)]
pub struct LoopbackTransport {
    format: WireFormat,
}

impl LoopbackTransport {
    /// A loopback carrying frames in `format` (the format only affects
    /// encode accounting; the bytes never cross a real link).
    pub fn new(format: WireFormat) -> LoopbackTransport {
        LoopbackTransport { format }
    }
}

impl Transport for LoopbackTransport {
    fn ship(&mut self, _label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)> {
        Ok((Duration::ZERO, message.to_vec()))
    }

    fn wire_format(&self) -> WireFormat {
        self.format
    }
}

/// One timed operator execution, recorded for observability. The
/// runtime layer turns these into trace spans and per-operator
/// histograms and feeds them to cost-model calibration; core itself
/// stays decoupled from any telemetry sink.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Program node index; `program.nodes.len()` and above for the
    /// commit/index epilogue steps, which have no node.
    pub node: usize,
    /// Operator kind: `Scan`/`Combine`/`Split`/`Write`, plus the
    /// epilogue pseudo-ops `Commit` and `Index`.
    pub op: &'static str,
    pub location: Location,
    /// When the operator started (same clock as the caller's spans).
    pub started: Instant,
    pub wall: Duration,
}

/// Outcome of executing a program.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Step timings (source/target queries, communication, loading,
    /// indexing; tagging/shredding stay zero — they are publish&map steps).
    pub times: StepTimes,
    /// Bytes shipped.
    pub bytes_shipped: u64,
    /// Messages shipped.
    pub messages: usize,
    /// Feed bytes produced by the wire encoder (the POST body, before
    /// HTTP and chunk framing).
    pub bytes_encoded: u64,
    /// Wall nanoseconds spent encoding feeds for the wire.
    pub encode_ns: u64,
    /// Rows loaded at the target.
    pub rows_loaded: u64,
    /// Per-operator wall-time samples, in execution order (including
    /// the commit and index epilogue). Empty for outcomes built by
    /// hand (e.g. folded parallel partials).
    pub op_samples: Vec<OpSample>,
}

/// Executes `program` between `source` and `target` over `link`.
///
/// The program must be fully placed and valid. Target tables are created
/// on first write; key indexes are rebuilt afterwards (the paper's final
/// "update indexes" step).
pub fn execute(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    target: &mut Database,
    link: &mut Link,
) -> Result<ExecOutcome> {
    execute_with_selection(
        schema,
        source_frag,
        target_frag,
        program,
        source,
        target,
        link,
        None,
    )
}

/// [`execute`] with an optional service argument: the source filters every
/// scanned feed to the qualifying anchor instances before any further
/// processing (paper §3.2: "the source system will filter the data
/// accordingly and provide us with the relevant pieces").
#[allow(clippy::too_many_arguments)]
pub fn execute_with_selection(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    target: &mut Database,
    link: &mut Link,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
) -> Result<ExecOutcome> {
    execute_with_transport(
        schema,
        source_frag,
        target_frag,
        program,
        source,
        target,
        link,
        selection,
    )
}

/// [`execute_with_selection`] over an arbitrary [`Transport`].
#[allow(clippy::too_many_arguments)]
pub fn execute_with_transport(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    target: &mut Database,
    transport: &mut dyn Transport,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
) -> Result<ExecOutcome> {
    program.validate()?;
    program.validate_placement()?;
    let mut outcome = ExecOutcome::default();
    // Writes are *staged* at the target; only a run that completes every
    // node commits them. A session dying mid-`Write` (transport gave up,
    // damage detected, engine error) rolls back and leaves the target's
    // tables exactly as they were — never half-loaded.
    let result = run_nodes(
        schema,
        source_frag,
        target_frag,
        program,
        source,
        target,
        transport,
        selection,
        &mut outcome,
    );
    if let Err(e) = result {
        target.rollback_staged();
        return Err(e);
    }
    commit_and_index(program, target, &mut outcome)?;
    Ok(outcome)
}

/// One cross-edge port of a placed program: produced at the source,
/// consumed at the target, shipped as its own message (or batch stream).
#[derive(Debug, Clone)]
pub struct CrossPort {
    /// The producing port.
    pub port: PortRef,
    /// The region name used as the shipment label.
    pub label: String,
}

/// Everything the source side of a phase-split execution produced: the
/// feeds sitting on cross edges (trimmed to exactly those — intermediate
/// feeds are dropped) and the cross-edge ports in deterministic
/// first-consumer order, which pipelined runtimes use as the shipment
/// numbering across runs and resumes.
#[derive(Debug)]
pub struct SourcePhase {
    /// Cross-edge feeds, keyed by producing port.
    pub feeds: HashMap<PortRef, Feed>,
    /// Cross-edge ports in the order the target first consumes them.
    pub cross_ports: Vec<CrossPort>,
}

/// Runs every *source*-located node of `program` — the CPU half of a
/// phase-split execution. Because placed programs admit no
/// target→source edges (enforced here exactly as in
/// [`execute_with_transport`]), any valid program splits cleanly into a
/// source phase, one ship-everything boundary, and a target phase: the
/// seam an event-driven runtime parks sessions at while frames are on
/// the wire.
pub fn execute_source_phase(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
) -> Result<(SourcePhase, ExecOutcome)> {
    execute_source_phase_streaming(
        schema,
        source_frag,
        target_frag,
        program,
        source,
        selection,
        &mut |_| {},
    )
}

/// Cross-edge ports of a placed program in the order the target first
/// consumes them — the deterministic shipment numbering pipelined
/// runtimes and resumes share. Depends only on the program, so a
/// streaming caller can compute it before execution starts.
pub fn cross_ports_in_consumer_order(schema: &SchemaTree, program: &Program) -> Vec<CrossPort> {
    let mut cross_ports: Vec<CrossPort> = Vec::new();
    for node in &program.nodes {
        if node.location != Location::Target {
            continue;
        }
        for p in &node.inputs {
            if program.nodes[p.node].location == Location::Source
                && !cross_ports.iter().any(|c| c.port == *p)
            {
                cross_ports.push(CrossPort {
                    port: *p,
                    label: program
                        .port_region(*p)
                        .map(|r| r.name(schema))
                        .unwrap_or_default(),
                });
            }
        }
    }
    cross_ports
}

/// [`execute_source_phase`] with a streaming hook: `on_cross_feed` is
/// invoked with the current feed map each time a node completes that
/// produces a cross-edge feed — while later source nodes are still
/// running. A cross feed is final the moment its producer finishes
/// (downstream nodes only read it), so a pipelined runtime can put the
/// first frames on the wire before the source phase returns. The hook
/// sees the feeds shared and must not rely on being called in
/// consumer order; feeds it skips remain in the returned
/// [`SourcePhase`].
pub fn execute_source_phase_streaming(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
    on_cross_feed: &mut dyn FnMut(&HashMap<PortRef, Feed>),
) -> Result<(SourcePhase, ExecOutcome)> {
    program.validate()?;
    program.validate_placement()?;
    let cross_ports = cross_ports_in_consumer_order(schema, program);
    let mut outcome = ExecOutcome::default();
    let mut feeds: HashMap<PortRef, Feed> = HashMap::new();
    for i in 0..program.nodes.len() {
        let node = &program.nodes[i];
        if node.location != Location::Source {
            continue;
        }
        let mut inputs: Vec<Feed> = Vec::with_capacity(node.inputs.len());
        for p in &node.inputs {
            if program.nodes[p.node].location == Location::Target {
                return Err(Error::InvalidProgram {
                    detail: "target→source edge at runtime".into(),
                });
            }
            inputs.push(
                feeds
                    .get(p)
                    .ok_or_else(|| Error::InvalidProgram {
                        detail: format!("missing feed for port {p:?}"),
                    })?
                    .clone(),
            );
        }
        apply_op(
            schema,
            source_frag,
            target_frag,
            program,
            i,
            source,
            inputs,
            selection,
            &mut feeds,
            &mut outcome,
        )?;
        if cross_ports.iter().any(|c| c.port.node == i) {
            on_cross_feed(&feeds);
        }
    }
    feeds.retain(|p, _| cross_ports.iter().any(|c| c.port == *p));
    Ok((SourcePhase { feeds, cross_ports }, outcome))
}

/// Runs every *target*-located node of `program` against feeds already
/// delivered across the cross edges, then commits the staged writes and
/// rebuilds the key indexes — the back half of a phase-split execution.
/// A failure anywhere rolls the staged writes back, leaving the target
/// exactly as it was.
pub fn execute_target_phase(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    target: &mut Database,
    delivered: &HashMap<PortRef, Feed>,
    outcome: &mut ExecOutcome,
) -> Result<()> {
    let result = run_target_nodes(
        schema,
        source_frag,
        target_frag,
        program,
        target,
        delivered,
        outcome,
    );
    if let Err(e) = result {
        target.rollback_staged();
        return Err(e);
    }
    commit_and_index(program, target, outcome)
}

/// The commit + index epilogue shared by every execution path.
pub fn commit_and_index(
    program: &Program,
    target: &mut Database,
    outcome: &mut ExecOutcome,
) -> Result<()> {
    let start = Instant::now();
    target.commit_staged();
    let wall = start.elapsed();
    outcome.times.loading += wall;
    outcome.op_samples.push(OpSample {
        node: program.nodes.len(),
        op: "Commit",
        location: Location::Target,
        started: start,
        wall,
    });
    let start = Instant::now();
    target.build_all_key_indexes()?;
    let wall = start.elapsed();
    outcome.times.indexing += wall;
    outcome.op_samples.push(OpSample {
        node: program.nodes.len() + 1,
        op: "Index",
        location: Location::Target,
        started: start,
        wall,
    });
    Ok(())
}

fn run_target_nodes(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    target: &mut Database,
    delivered: &HashMap<PortRef, Feed>,
    outcome: &mut ExecOutcome,
) -> Result<()> {
    let mut feeds: HashMap<PortRef, Feed> = HashMap::new();
    for i in 0..program.nodes.len() {
        let node = &program.nodes[i];
        if node.location != Location::Target {
            continue;
        }
        let mut inputs: Vec<Feed> = Vec::with_capacity(node.inputs.len());
        for p in &node.inputs {
            let map = if program.nodes[p.node].location == Location::Source {
                delivered
            } else {
                &feeds
            };
            inputs.push(
                map.get(p)
                    .ok_or_else(|| Error::InvalidProgram {
                        detail: format!("missing feed for port {p:?}"),
                    })?
                    .clone(),
            );
        }
        apply_op(
            schema,
            source_frag,
            target_frag,
            program,
            i,
            target,
            inputs,
            None,
            &mut feeds,
            outcome,
        )?;
    }
    Ok(())
}

/// Splits a Dewey-sorted feed into row batches of at most `batch_rows`
/// rows, preserving order. An empty feed yields one empty batch, so
/// every cross port ships at least one frame. Deterministic: the same
/// feed and batch size always produce the same batches — resumed
/// sessions replay the identical shipment sequence.
pub fn feed_batches(feed: &Feed, batch_rows: usize) -> Vec<Feed> {
    let n = batch_rows.max(1);
    if feed.rows.is_empty() {
        return vec![Feed::new(feed.schema.clone())];
    }
    feed.rows
        .chunks(n)
        .map(|rows| Feed {
            schema: feed.schema.clone(),
            rows: rows.to_vec(),
        })
        .collect()
}

/// True when every target-located node is a `Write` fed directly by
/// cross edges: each delivered batch can then be *staged on arrival* —
/// the target begins its transactional load while the source is still
/// producing — instead of waiting for the whole feed.
pub fn writes_stream_directly(program: &Program) -> bool {
    program.nodes.iter().all(|n| {
        n.location != Location::Target
            || (matches!(n.op, Op::Write { .. })
                && n.inputs
                    .iter()
                    .all(|p| program.nodes[p.node].location == Location::Source))
    })
}

/// For a program where [`writes_stream_directly`], the `(node index,
/// target table)` each cross port feeds — what a streaming runtime
/// needs to stage arriving batches without running the node loop.
pub fn direct_write_tables(
    program: &Program,
    target_frag: &Fragmentation,
) -> HashMap<PortRef, (usize, String)> {
    let mut map = HashMap::new();
    for (i, node) in program.nodes.iter().enumerate() {
        if node.location != Location::Target {
            continue;
        }
        if let Op::Write { fragment } = node.op {
            if let Some(port) = node.inputs.first() {
                map.insert(*port, (i, target_frag.fragments[fragment].name.clone()));
            }
        }
    }
    map
}

/// Executes one placed node: resolves the operator, times it, files its
/// output feeds, and records the [`OpSample`]. Shared by the blocking
/// node loop and both phase-split halves so operator semantics cannot
/// diverge between them.
#[allow(clippy::too_many_arguments)]
fn apply_op(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    i: usize,
    db: &mut Database,
    inputs: Vec<Feed>,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
    feeds: &mut HashMap<PortRef, Feed>,
    outcome: &mut ExecOutcome,
) -> Result<()> {
    let node = &program.nodes[i];
    let loc = node.location;
    let start = Instant::now();
    match &node.op {
        Op::Scan { fragment } => {
            let name = &source_frag.fragments[*fragment].name;
            let mut feed = db.scan(name)?;
            if let Some((sel, qualifying)) = selection {
                feed = sel.filter_feed(schema, &feed, qualifying);
            }
            feeds.insert(PortRef { node: i, port: 0 }, feed);
            outcome.times.source_queries += start.elapsed();
        }
        Op::Combine { anchor } => {
            let anchor_name = schema.name(*anchor);
            let combined = {
                let (table_counters, parent, child) = (&mut db.counters, &inputs[0], &inputs[1]);
                merge_combine(parent, child, anchor_name, table_counters)?
            };
            feeds.insert(PortRef { node: i, port: 0 }, combined);
            match loc {
                Location::Source => outcome.times.source_queries += start.elapsed(),
                _ => outcome.times.target_queries += start.elapsed(),
            }
        }
        Op::Split => {
            let input_region = program
                .port_region(node.inputs[0])
                .expect("validated program")
                .clone();
            let specs: Vec<SplitSpec> = node
                .outputs
                .iter()
                .map(|r| {
                    let anchor_element = if r.root == input_region.root {
                        None
                    } else {
                        schema
                            .node(r.root)
                            .parent
                            .map(|p| schema.name(p).to_string())
                    };
                    SplitSpec {
                        root_element: schema.name(r.root).to_string(),
                        anchor_element,
                        elements: r
                            .elements
                            .iter()
                            .map(|&e| schema.name(e).to_string())
                            .collect(),
                    }
                })
                .collect();
            let outs = split(&inputs[0], &specs, &mut db.counters)?;
            for (port, feed) in outs.into_iter().enumerate() {
                feeds.insert(PortRef { node: i, port }, feed);
            }
            match loc {
                Location::Source => outcome.times.source_queries += start.elapsed(),
                _ => outcome.times.target_queries += start.elapsed(),
            }
        }
        Op::Write { fragment } => {
            let name = target_frag.fragments[*fragment].name.clone();
            let feed = inputs.into_iter().next().expect("write has one input");
            outcome.rows_loaded += feed.len() as u64;
            db.load_staged(&name, feed)?;
            outcome.times.loading += start.elapsed();
        }
    }
    outcome.op_samples.push(OpSample {
        node: i,
        op: node.op.kind(),
        location: loc,
        started: start,
        wall: start.elapsed(),
    });
    Ok(())
}

/// The node loop of [`execute_with_transport`]: every `Write` lands in
/// the target's staging area, so the caller can commit or roll back the
/// whole program atomically.
#[allow(clippy::too_many_arguments)]
fn run_nodes(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    target: &mut Database,
    transport: &mut dyn Transport,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
    outcome: &mut ExecOutcome,
) -> Result<()> {
    // Feeds produced so far, keyed by port; `shipped` caches feeds that
    // already crossed the link.
    let mut feeds: HashMap<PortRef, Feed> = HashMap::new();
    let mut shipped: HashMap<PortRef, Feed> = HashMap::new();
    // One encode buffer for every shipment of this run: it grows to the
    // largest frame and stays there, so steady-state encoding allocates
    // only the POST body it hands to the transport.
    let mut encode_buf: Vec<u8> = Vec::new();

    for i in 0..program.nodes.len() {
        let node = &program.nodes[i];
        let loc = node.location;
        // Materialize this node's inputs on its own side, shipping when
        // the producer ran at the source and we run at the target.
        let mut inputs: Vec<Feed> = Vec::with_capacity(node.inputs.len());
        for p in &node.inputs {
            let produced_at = program.nodes[p.node].location;
            let feed = match (produced_at, loc) {
                (Location::Source, Location::Target) => {
                    if let Some(f) = shipped.get(p) {
                        f.clone()
                    } else {
                        let label = program
                            .port_region(*p)
                            .map(|r| r.name(schema))
                            .unwrap_or_default();
                        let f = feeds.get(p).ok_or_else(|| Error::InvalidProgram {
                            detail: format!("missing feed for port {p:?}"),
                        })?;
                        let start = Instant::now();
                        let len =
                            encode_in_format_into(&mut encode_buf, f, transport.wire_format());
                        outcome.encode_ns += start.elapsed().as_nanos() as u64;
                        outcome.bytes_encoded += len as u64;
                        let message =
                            Request::soap_post("/exchange", &label, encode_buf.clone()).to_bytes();
                        let (duration, delivered) = transport.ship(&label, &message)?;
                        outcome.times.communication += duration;
                        outcome.bytes_shipped += message.len() as u64;
                        outcome.messages += 1;
                        // The target decodes what actually arrived — link
                        // damage surfaces here as an explicit error (HTTP
                        // length check or feed checksum), never as
                        // silently corrupt data. The body is sniffed, so
                        // a columnar sender and an XML sender land at the
                        // same receiver code.
                        let arrived =
                            Request::parse(&delivered).map_err(|e| Error::Engine(e.to_string()))?;
                        let decoded = decode_any(&arrived.body)?;
                        shipped.insert(*p, decoded.clone());
                        decoded
                    }
                }
                (Location::Target, Location::Source) => {
                    return Err(Error::InvalidProgram {
                        detail: "target→source edge at runtime".into(),
                    })
                }
                _ => feeds
                    .get(p)
                    .ok_or_else(|| Error::InvalidProgram {
                        detail: format!("missing feed for port {p:?}"),
                    })?
                    .clone(),
            };
            inputs.push(feed);
        }

        let db: &mut Database = match loc {
            Location::Source => source,
            Location::Target => target,
            Location::Unassigned => unreachable!("validated placement"),
        };
        apply_op(
            schema,
            source_frag,
            target_frag,
            program,
            i,
            db,
            inputs,
            selection,
            &mut feeds,
            outcome,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::testutil::{customer_schema, t_fragmentation};
    use crate::gen::Generator;
    use crate::program::Location;
    use xdx_net::NetworkProfile;
    use xdx_relational::{Dewey, Value};

    fn dv(path: &[u32]) -> Value {
        Value::Dewey(Dewey(path.to_vec()))
    }

    /// Loads a tiny MF-style source: one table per element of the customer
    /// schema, 2 customers × 2 orders each.
    fn setup_source(schema: &SchemaTree, mf: &Fragmentation) -> Database {
        let mut db = Database::new("source");
        let mut feeds: HashMap<String, Feed> = HashMap::new();
        for frag in &mf.fragments {
            feeds.insert(frag.name.clone(), Feed::new(frag.feed_schema(schema)));
        }
        let mut add = |elem: &str, parent: &[u32], id: &[u32], text: Option<&str>| {
            let frag_name = elem.to_uppercase();
            let feed = feeds.get_mut(&frag_name).unwrap();
            let mut row = vec![dv(parent), dv(id)];
            if feed.schema.arity() == 3 {
                row.push(text.map(|t| Value::Str(t.into())).unwrap_or(Value::Null));
            }
            feed.push_row(row).unwrap();
        };
        for c in 1..=2u32 {
            add("Customer", &[], &[c], None);
            add("CustName", &[c], &[c, 1], Some(&format!("cust{c}")));
            for o in 1..=2u32 {
                add("Order", &[c], &[c, o + 1], None);
                add("Service", &[c, o + 1], &[c, o + 1, 1], None);
                add(
                    "ServiceName",
                    &[c, o + 1, 1],
                    &[c, o + 1, 1, 1],
                    Some("local"),
                );
                add("Line", &[c, o + 1, 1], &[c, o + 1, 1, 2], None);
                add(
                    "TelNo",
                    &[c, o + 1, 1, 2],
                    &[c, o + 1, 1, 2, 1],
                    Some("555"),
                );
                add("Switch", &[c, o + 1, 1, 2], &[c, o + 1, 1, 2, 2], None);
                add(
                    "SwitchID",
                    &[c, o + 1, 1, 2, 2],
                    &[c, o + 1, 1, 2, 2, 1],
                    Some("sw1"),
                );
                add("Feature", &[c, o + 1, 1, 2], &[c, o + 1, 1, 2, 3], None);
                add(
                    "FeatureID",
                    &[c, o + 1, 1, 2, 3],
                    &[c, o + 1, 1, 2, 3, 1],
                    Some("cid"),
                );
            }
        }
        for (name, feed) in feeds {
            db.load(&name, feed).unwrap();
        }
        db
    }

    #[test]
    fn executes_mf_to_t_end_to_end() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut program = gen.canonical().unwrap();
        for n in &mut program.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let mut source = setup_source(&schema, &mf);
        let mut target = Database::new("target");
        let mut link = Link::new(NetworkProfile::lan());
        let outcome = execute(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut link,
        )
        .unwrap();
        // 2 customers, 4 orders, 4 lines, 4 features.
        assert_eq!(target.table("Customer.xsd").unwrap().len(), 2);
        assert_eq!(target.table("Order_Service.xsd").unwrap().len(), 4);
        assert_eq!(target.table("Line_Switch.xsd").unwrap().len(), 4);
        assert_eq!(target.table("Feature.xsd").unwrap().len(), 4);
        assert_eq!(outcome.messages, 4); // one shipment per target fragment
        assert!(outcome.bytes_shipped > 0);
        assert!(outcome.times.communication.as_nanos() > 0);
        assert_eq!(outcome.rows_loaded, 14);
        // Indexes rebuilt on all 4 tables (ID + PARENT each).
        assert!(target.counters.index_inserts > 0);
    }

    #[test]
    fn combines_at_target_ship_smaller_pieces() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);

        let mut at_source = gen.canonical().unwrap();
        for n in &mut at_source.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let mut at_target = gen.canonical().unwrap();
        for n in &mut at_target.nodes {
            n.location = match n.op {
                Op::Scan { .. } => Location::Source,
                _ => Location::Target,
            };
        }

        let run = |program: &Program| {
            let mut source = setup_source(&schema, &mf);
            let mut target = Database::new("target");
            let mut link = Link::new(NetworkProfile::lan());
            let out = execute(
                &schema,
                &mf,
                &t,
                program,
                &mut source,
                &mut target,
                &mut link,
            )
            .unwrap();
            (out, target.total_rows())
        };
        let (src_out, rows1) = run(&at_source);
        let (tgt_out, rows2) = run(&at_target);
        // Same data lands either way.
        assert_eq!(rows1, rows2);
        // Shipping all 11 element fragments costs more messages than the
        // 4 combined ones.
        assert_eq!(tgt_out.messages, schema.len());
        assert!(tgt_out.times.target_queries.as_nanos() > 0);
        assert_eq!(src_out.messages, 4);
    }

    #[test]
    fn identity_transfer_roundtrips_tables() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let gen = Generator::new(&schema, &mf, &mf);
        let mut program = gen.canonical().unwrap();
        for n in &mut program.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let mut source = setup_source(&schema, &mf);
        let mut target = Database::new("target");
        let mut link = Link::new(NetworkProfile::lan());
        execute(
            &schema,
            &mf,
            &mf,
            &program,
            &mut source,
            &mut target,
            &mut link,
        )
        .unwrap();
        for frag in &mf.fragments {
            let s = source.table(&frag.name).unwrap();
            let t = target.table(&frag.name).unwrap();
            assert_eq!(s.data.rows, t.data.rows, "fragment {}", frag.name);
        }
    }

    /// Transport that delivers faithfully for `good_ships` calls, then
    /// gives up — a session dying mid-exchange.
    struct DyingTransport {
        link: Link,
        good_ships: usize,
        ships: usize,
    }

    impl Transport for DyingTransport {
        fn ship(&mut self, label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)> {
            if self.ships >= self.good_ships {
                return Err(Error::Engine("link died".into()));
            }
            self.ships += 1;
            let (duration, delivered) = self.link.transmit(label, message);
            Ok((duration, delivered))
        }
    }

    #[test]
    fn failed_exchange_rolls_back_every_write() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut program = gen.canonical().unwrap();
        for n in &mut program.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let mut source = setup_source(&schema, &mf);
        let mut target = Database::new("target");
        // Two of four shipments land (so two Writes stage rows), then the
        // transport dies. Not one staged row may survive.
        let mut transport = DyingTransport {
            link: Link::new(NetworkProfile::lan()),
            good_ships: 2,
            ships: 0,
        };
        let err = execute_with_transport(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut transport,
            None,
        );
        assert!(err.is_err());
        assert_eq!(target.total_rows(), 0, "no partial tables after rollback");
        assert!(target.table_names().is_empty(), "created tables dropped");
        assert_eq!(target.counters.rows_written, 0);
        // The same target can then host a clean retry end-to-end.
        let mut link = Link::new(NetworkProfile::lan());
        execute(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut link,
        )
        .unwrap();
        assert_eq!(target.total_rows(), 14);
    }

    #[test]
    fn unplaced_program_rejected() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let program = gen.canonical().unwrap(); // unassigned
        let mut source = setup_source(&schema, &mf);
        let mut target = Database::new("target");
        let mut link = Link::new(NetworkProfile::lan());
        assert!(execute(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut link
        )
        .is_err());
    }
}
