//! Warehouses share one process-wide host cache. These tests pin that the
//! sharing never leaks one warehouse's documents into another's answers:
//! cache entries are keyed by URI *and* content hash.

use amada::index::Strategy;
use amada::pattern::{evaluate_query_on_documents, JoinedTuple, Query};
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use amada::xml::Document;
use std::sync::Barrier;

fn corpus(seed: u64, n: usize) -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        seed,
        num_documents: n,
        target_doc_bytes: 1500,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

/// Result rows with their document URIs, in a canonical order.
fn canon(results: Vec<JoinedTuple>) -> Vec<(Vec<String>, Vec<String>)> {
    let mut rows: Vec<_> = results
        .into_iter()
        .map(|t| (t.uris.iter().map(|u| u.to_string()).collect(), t.columns))
        .collect();
    rows.sort();
    rows
}

/// The no-index scan of `docs`, evaluated outside any warehouse.
fn scan(docs: &[(String, String)], q: &Query) -> Vec<(Vec<String>, Vec<String>)> {
    let parsed: Vec<Document> = docs
        .iter()
        .map(|(u, x)| Document::parse_str(u.clone(), x).unwrap())
        .collect();
    canon(evaluate_query_on_documents(q, parsed.iter()).0)
}

#[test]
fn warehouses_with_different_bodies_under_one_uri_answer_their_own_corpus() {
    let corpora = [corpus(1, 30), corpus(2, 30)];
    let uris = |c: &[(String, String)]| c.iter().map(|(u, _)| u.clone()).collect::<Vec<_>>();
    assert_eq!(uris(&corpora[0]), uris(&corpora[1]));
    assert!(corpora[0].iter().zip(&corpora[1]).all(|(a, b)| a.1 != b.1));
    // Both uploads finish before either build starts, so every URI's two
    // versions are live at once while both warehouses parse, extract and
    // evaluate on their own host thread.
    let uploaded = Barrier::new(corpora.len());
    std::thread::scope(|s| {
        for docs in &corpora {
            let uploaded = &uploaded;
            s.spawn(move || {
                let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
                w.upload_documents(docs.iter().cloned());
                uploaded.wait();
                w.build_index();
                for q in workload() {
                    let expected = scan(docs, &q);
                    assert_eq!(
                        canon(w.run_query(&q).exec.results),
                        expected,
                        "{:?}",
                        q.name
                    );
                    let no_index = w.run_query_no_index(&q).exec.results;
                    assert_eq!(canon(no_index), expected, "{:?} without index", q.name);
                }
            });
        }
    });
}

#[test]
fn equal_bytes_under_two_uris_answer_with_their_own_uri() {
    let docs = corpus(3, 8);
    // Every document stored twice, under its own URI and a copy's.
    let stored: Vec<(String, String)> = docs
        .iter()
        .flat_map(|(u, x)| [(u.clone(), x.clone()), (format!("copy-{u}"), x.clone())])
        .collect();
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::TwoLupi));
    w.upload_documents(stored.iter().cloned());
    w.build_index();
    let mut answered = 0;
    for q in workload() {
        let expected = scan(&stored, &q);
        let got = canon(w.run_query(&q).exec.results);
        assert_eq!(got, expected, "{:?}", q.name);
        answered += got.len();
    }
    assert!(answered > 0, "the workload matches something");
}
