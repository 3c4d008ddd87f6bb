//! JSON framing of the wire protocol: the kind tag leads every line,
//! and malformed input is rejected with an error, never a panic. The
//! round-trip of every kind is pinned in `wire_table.rs`.

use proto::proto::{LoadReport, Request, Response};

#[test]
fn kind_tag_leads_the_line() {
    let line = serde_json::to_string(&Request::Stats).expect("encode");
    assert_eq!(line, "{\"kind\":\"stats\"}");
    let line = serde_json::to_string(&Response::Ok).expect("encode");
    assert_eq!(line, "{\"kind\":\"ok\"}");
    let line = serde_json::to_string(&Request::LoadReport(LoadReport {
        machine: "m".to_string(),
        at: 1.0,
        load: 2.0,
        comm_frac: -1.0,
    }))
    .expect("encode");
    assert!(line.starts_with("{\"kind\":\"load_report\","), "{line}");
}

#[test]
fn malformed_requests_are_rejected() {
    for bad in [
        "",                                                                     // not JSON
        "null",                                                                 // wrong shape
        "42",                                                                   // wrong shape
        "[]",                                                                   // wrong shape
        "{}",                                                                   // missing kind
        "{\"kind\":12}",           // kind must be a string
        "{\"kind\":\"teleport\"}", // unknown kind
        "{\"kind\":\"predict\"}",  // missing payload fields
        "{\"kind\":\"load_report\",\"machine\":\"m\",\"at\":1.0,\"load\":2.0}", // missing field
        "{\"kind\":\"load_report\",\"machine\":3,\"at\":1.0,\"load\":2.0,\"comm_frac\":0.0}",
        "{\"kind\":\"predict\",\"machine\":\"m\",\"now\":1.0,\"task\":7,\"j_words\":1}",
        // negative dcomp rejected by the units layer during decode
        "{\"kind\":\"predict\",\"machine\":\"m\",\"now\":1.0,\"task\":{\"dcomp_sun\":-1.0,\
         \"t_paragon\":1.0,\"to_backend\":[],\"from_backend\":[]},\"j_words\":1}",
    ] {
        assert!(serde_json::from_str::<Request>(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn malformed_responses_are_rejected() {
    for bad in [
        "{}",
        "{\"kind\":\"prediction\"}",
        "{\"kind\":\"mystery\"}",
        "{\"kind\":\"stats\",\"requests\":{}}",
        "{\"kind\":\"gw_stats\",\"backends\":[{\"addr\":\"x\"}]}",
    ] {
        assert!(serde_json::from_str::<Response>(bad).is_err(), "accepted: {bad}");
    }
}
