open Net

type t = {
  import : peer:Asn.t -> Route.t -> Route.t option;
  export : peer:Asn.t -> Route.t -> Route.t option;
}

let accept ~peer:_ route = Some route

let default = { import = accept; export = accept }

let imports_unchanged t = t.import == accept
let exports_unchanged t = t.export == accept

let drop_communities_on_export t =
  {
    t with
    export =
      (fun ~peer route ->
        Option.map Route.strip_communities (t.export ~peer route));
  }

let reject_import_when pred t =
  {
    t with
    import =
      (fun ~peer route ->
        if pred ~peer route then None else t.import ~peer route);
  }

let compose_export f t =
  {
    t with
    export =
      (fun ~peer route ->
        match t.export ~peer route with
        | Some route -> f ~peer route
        | None -> None);
  }
